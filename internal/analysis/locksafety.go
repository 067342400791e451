package analysis

import (
	"go/ast"
	"go/types"
)

// LockSafety detects sync.Mutex / sync.RWMutex values (or structs that
// embed them) copied by value: through function parameters or receivers,
// range variables, or plain assignment from existing memory. A copied lock
// guards nothing — two goroutines each lock their own copy and race on the
// shared telemetry state behind it.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc: "detects sync.Mutex/sync.RWMutex copied by value through parameters, " +
		"receivers, range variables or assignment, and locks still held on an " +
		"early-return path (CFG dataflow)",
	Run: runLockSafety,
}

// lockPath returns a human-readable description of the lock a type carries
// ("sync.Mutex", "struct containing sync.RWMutex"), or "" if it carries
// none. Pointers do not carry locks — only values do.
func lockPath(t types.Type) string {
	return lockPathRec(t, make(map[types.Type]bool))
}

func lockPathRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex":
				return "sync." + obj.Name()
			}
		}
		return lockPathRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if inner := lockPathRec(t.Field(i).Type(), seen); inner != "" {
				if inner == "sync.Mutex" || inner == "sync.RWMutex" {
					return "struct containing " + inner
				}
				return inner
			}
		}
	case *types.Array:
		return lockPathRec(t.Elem(), seen)
	}
	return ""
}

func runLockSafety(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					checkFieldList(pass, n.Recv, "receiver")
				}
				checkFieldList(pass, n.Type.Params, "parameter")
				checkLockBalance(pass, n)
			case *ast.FuncLit:
				checkFieldList(pass, n.Type.Params, "parameter")
			case *ast.RangeStmt:
				if n.Value != nil {
					if lock := lockPath(pass.TypeOf(n.Value)); lock != "" {
						pass.Reportf(n.Value.Pos(), "range variable copies %s each iteration; range over pointers instead", lock)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					// `_ = x` marks a value as used without observable
					// copying; only real bindings are flagged.
					if lhs, ok := n.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
						continue
					}
					if !copiesExistingValue(rhs) {
						continue
					}
					if lock := lockPath(pass.TypeOf(rhs)); lock != "" {
						pass.Reportf(rhs.Pos(), "assignment copies %s; use a pointer", lock)
					}
				}
			}
			return true
		})
	}
}

// copiesExistingValue reports whether evaluating e copies a value that
// already lives elsewhere (as opposed to a fresh composite literal, call
// result or address-of, which are safe to bind).
func copiesExistingValue(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

func checkFieldList(pass *Pass, fields *ast.FieldList, kind string) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		if lock := lockPath(pass.TypeOf(field.Type)); lock != "" {
			pass.Reportf(field.Type.Pos(), "%s passes %s by value; use a pointer", kind, lock)
		}
	}
}
