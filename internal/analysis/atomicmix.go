package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix flags variables and struct fields that are accessed both
// through sync/atomic (atomic.AddInt64(&s.n, 1), atomic.LoadUint32(&v))
// and through plain loads or stores. Mixing the two voids the memory
// model: the plain access can tear, be reordered past the atomic one,
// or simply miss a concurrent update — a mutex held around the plain
// access does not help, because the atomic writer does not take it.
// Either every access goes through sync/atomic, or none does.
//
// Composite-literal initialisation (S{n: 0}) is not counted as a plain
// access: the value is unpublished while it is being built.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flags variables/fields accessed both via sync/atomic and via plain loads/stores " +
		"(mixed access voids the memory-model guarantees of both)",
	Run: runAtomicMix,
}

// atomicAddrFunc reports whether a call is a sync/atomic function taking
// the target address as its first argument (AddT, LoadT, StoreT, SwapT,
// CompareAndSwapT).
func atomicAddrFunc(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return len(call.Args) > 0
}

// atomicTargetObject resolves the object behind &expr in an atomic
// call's first argument: the field var for &s.n, the variable for &v.
func atomicTargetObject(pass *Pass, arg ast.Expr) types.Object {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	switch target := ast.Unparen(un.X).(type) {
	case *ast.Ident:
		return pass.Info.Uses[target]
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[target]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.IndexExpr:
		// &counts[i]: atomic slots in a slice — track the slice object
		// so plain counts[i] reads get flagged too.
		return rootObject(pass, target.X)
	}
	return nil
}

func runAtomicMix(pass *Pass) {
	// Pass 1: find every atomically-accessed object and remember one
	// representative position for the diagnostic.
	atomicAt := make(map[types.Object]token.Pos)
	inAtomicArg := make(map[ast.Node]bool) // subtrees consumed by atomic calls
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !atomicAddrFunc(pass, call) {
				return true
			}
			arg := call.Args[0]
			if obj := atomicTargetObject(pass, arg); obj != nil {
				if _, seen := atomicAt[obj]; !seen {
					atomicAt[obj] = call.Pos()
				}
				inAtomicArg[arg] = true
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return
	}

	// Pass 2: every other syntactic reference to those objects is a
	// plain access. Composite-literal keys and field declarations are
	// definition sites, not accesses; the address-taking inside the
	// atomic calls themselves was marked above.
	type finding struct {
		pos  token.Pos
		name string
		obj  types.Object
	}
	var findings []finding
	for _, f := range pass.Files {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if n != nil && inAtomicArg[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				// S{n: 0}: audit only the value side.
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Field:
				return false
			case *ast.SelectorExpr:
				if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if _, hit := atomicAt[sel.Obj()]; hit {
						findings = append(findings, finding{pos: n.Sel.Pos(), name: types.ExprString(n), obj: sel.Obj()})
					}
				}
				// Walk only the base (it may itself be tracked); the Sel
				// ident resolves to the same field object and would
				// double-report.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				obj := pass.Info.Uses[n]
				if obj == nil {
					return true
				}
				if _, hit := atomicAt[obj]; hit {
					findings = append(findings, finding{pos: n.Pos(), name: n.Name, obj: obj})
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, fd := range findings {
		atomicPos := pass.Fset.Position(atomicAt[fd.obj])
		pass.Reportf(fd.pos, "%s is accessed atomically (e.g. %s:%d) but read/written plainly here; "+
			"mixed atomic and plain access has no memory-model guarantee",
			fd.name, atomicPos.Filename, atomicPos.Line)
	}
}
