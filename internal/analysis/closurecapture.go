package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ecocapsule/internal/analysis/cfg"
)

// ClosureCapture audits the bodies of asynchronously-executed closures:
// `go func(){...}()` statements and the body literals of the conc pool
// (conc.Queues and its one-item case conc.For). Two classes
// of finding:
//
//   - capture of an enclosing loop variable. Per-iteration loop
//     variables make this memory-safe on modern toolchains, but the
//     fork-join code in this repository owes callers a determinism
//     contract (see internal/conc): a body closure must depend only on
//     its index argument, never on loop state threaded in by capture,
//     or a future refactor of the loop silently changes what the
//     workers observe. Pass the value as an argument instead.
//
//   - mutation of captured shared state with no lock held at the write.
//     The per-index result-slot pattern (out[i] = ... where i is the
//     closure's own parameter or local) is recognised and allowed; map
//     writes never are — concurrent map writes fault the runtime even
//     on disjoint keys.
//
// Writes that happen while any mutex is held (directly or through a
// helper carrying a LockFact) are considered synchronised; guardedby
// checks that it is the *right* mutex.
var ClosureCapture = &Analyzer{
	Name:      "closurecapture",
	UsesFacts: true,
	Doc: "flags goroutine and conc.Queues/conc.For body closures that capture loop variables or " +
		"mutate captured shared state without synchronization",
	Run: runClosureCapture,
}

// concPoolFunc returns the name of the conc pool function a call targets
// ("Queues" or "For"), or "" for any other call. The path is matched by
// suffix so the golden fixture can supply its own stub under
// testdata/src/closurecapture/internal/conc.
func concPoolFunc(pass *Pass, call *ast.CallExpr) string {
	fn, _ := callTarget(pass, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/conc") {
		return ""
	}
	if fn.Name() != "Queues" && fn.Name() != "For" {
		return ""
	}
	return fn.Name()
}

// asyncClosure is one closure that will run on another goroutine.
type asyncClosure struct {
	lit  *ast.FuncLit
	kind string // "goroutine", "conc.Queues body" or "conc.For body"
	// loopVars holds the loop variables of the loops enclosing the
	// launch site, if any.
	loopVars map[types.Object]bool
}

// loopVarsOf extracts the iteration variables a loop statement defines.
func loopVarsOf(pass *Pass, n ast.Node, into map[types.Object]bool) {
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				into[obj] = true
			}
		}
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		if n.Tok == token.DEFINE {
			addIdent(n.Key)
			if n.Value != nil {
				addIdent(n.Value)
			}
		}
	case *ast.ForStmt:
		if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				addIdent(lhs)
			}
		}
	}
}

// collectAsyncClosures walks one function body tracking the enclosing
// loop stack, and returns every go-statement literal and conc pool body
// literal (the last argument of Queues or For) with the loop variables in
// scope at its launch site.
func collectAsyncClosures(pass *Pass, body *ast.BlockStmt) []asyncClosure {
	var out []asyncClosure
	var loopStack []map[types.Object]bool

	currentLoopVars := func() map[types.Object]bool {
		vars := make(map[types.Object]bool)
		for _, frame := range loopStack {
			for obj := range frame {
				vars[obj] = true
			}
		}
		return vars
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.RangeStmt, *ast.ForStmt:
			frame := make(map[types.Object]bool)
			loopVarsOf(pass, n, frame)
			loopStack = append(loopStack, frame)
			ast.Inspect(n, func(x ast.Node) bool {
				if x == n {
					return true
				}
				switch x.(type) {
				case *ast.RangeStmt, *ast.ForStmt, *ast.GoStmt, *ast.CallExpr:
					walk(x)
					return false
				}
				return true
			})
			loopStack = loopStack[:len(loopStack)-1]
			return
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, asyncClosure{lit: lit, kind: "goroutine", loopVars: currentLoopVars()})
				walk(lit.Body) // nested launches inside the closure
				return
			}
			walk(n.Call)
			return
		case *ast.CallExpr:
			if name := concPoolFunc(pass, n); name != "" && len(n.Args) > 0 {
				last := len(n.Args) - 1
				if lit, ok := ast.Unparen(n.Args[last]).(*ast.FuncLit); ok {
					out = append(out, asyncClosure{lit: lit, kind: "conc." + name + " body", loopVars: currentLoopVars()})
					for _, arg := range n.Args[:last] {
						walk(arg)
					}
					walk(lit.Body)
					return
				}
			}
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if x == n {
				return true
			}
			switch x.(type) {
			case *ast.RangeStmt, *ast.ForStmt, *ast.GoStmt, *ast.CallExpr:
				walk(x)
				return false
			}
			return true
		})
	}
	walk(body)
	return out
}

// capturedWrite is one mutation of captured state inside an async
// closure.
type capturedWrite struct {
	pos  token.Pos
	expr ast.Expr
	obj  types.Object
	kind string // "variable", "map", "field"
}

func (w *capturedWrite) Pos() token.Pos { return w.pos }

// closureWrites collects the writes inside lit whose target is rooted
// outside the literal: assignments, ++/--, and delete(). Nested function
// literals are skipped (each is audited on its own if launched).
// Safe per-index slot writes (slice index computed from closure-local
// state) are filtered out; map writes never are.
func closureWrites(pass *Pass, lit *ast.FuncLit) []capturedWrite {
	declaredOutside := func(obj types.Object) bool {
		if obj == nil || obj.Pos() == token.NoPos {
			return false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	localIndex := func(e ast.Expr) bool {
		obj := rootObject(pass, e)
		if obj == nil {
			// Literal or computed index: treat constants as local.
			_, isLit := ast.Unparen(e).(*ast.BasicLit)
			return isLit
		}
		return !declaredOutside(obj)
	}

	var writes []capturedWrite
	var classify func(e ast.Expr, pos token.Pos)
	classify = func(e ast.Expr, pos token.Pos) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			if declaredOutside(obj) {
				writes = append(writes, capturedWrite{pos: e.Pos(), expr: e, obj: obj, kind: "variable"})
			}
		case *ast.IndexExpr:
			root := rootObject(pass, e.X)
			if !declaredOutside(root) {
				return
			}
			if t := pass.Info.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					writes = append(writes, capturedWrite{pos: e.Pos(), expr: e.X, obj: root, kind: "map"})
					return
				}
			}
			// Slice/array slot: safe when the index is closure-local
			// (the conc pool's per-item result-slot pattern).
			if !localIndex(e.Index) {
				writes = append(writes, capturedWrite{pos: e.Pos(), expr: e.X, obj: root, kind: "variable"})
			}
		case *ast.StarExpr:
			if root := rootObject(pass, e.X); declaredOutside(root) {
				writes = append(writes, capturedWrite{pos: e.Pos(), expr: e.X, obj: root, kind: "variable"})
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[e]; !ok || sel.Kind() != types.FieldVal {
				return
			}
			if root := rootObject(pass, e.X); declaredOutside(root) {
				writes = append(writes, capturedWrite{pos: e.Pos(), expr: e, obj: root, kind: "field"})
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				classify(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			classify(n.X, n.Pos())
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if root := rootObject(pass, n.Args[0]); root != nil {
					if obj := root; obj.Pos() != token.NoPos && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
						writes = append(writes, capturedWrite{pos: n.Pos(), expr: n.Args[0], obj: obj, kind: "map"})
					}
				}
			}
		}
		return true
	})
	sort.Slice(writes, func(i, j int) bool { return writes[i].pos < writes[j].pos })
	return writes
}

// heldAtPositions solves the must-held flow over the closure body and
// replays it with the captured writes as probes, reporting for each
// write position whether any lock is held there. A closure starts with
// nothing held: goroutines do not inherit their spawner's locks.
func heldAtPositions(pass *Pass, lit *ast.FuncLit, resolver func(*types.Func) *LockFact, writes []capturedWrite) map[token.Pos]bool {
	heldAt := make(map[token.Pos]bool, len(writes))
	if len(writes) == 0 {
		return heldAt
	}
	g := cfg.New(lit.Body)
	flow := lockFlow{pass: pass, resolver: resolver, must: true}
	// A node's probes are the writes inside it, in position order.
	probesOf := func(n ast.Node) []probe {
		var in []probe
		for i := range writes {
			if w := &writes[i]; n.Pos() <= w.pos && w.pos < n.End() {
				in = append(in, w)
			}
		}
		return in
	}
	flow.replay(g, flow.solve(g, nil), probesOf, func(held lockSet, ev probe) {
		if w, ok := ev.(*capturedWrite); ok && len(held) > 0 {
			heldAt[w.pos] = true
		}
	})
	return heldAt
}

func runClosureCapture(pass *Pass) {
	resolver := func(fn *types.Func) *LockFact {
		var lf LockFact
		if pass.ImportObjectFact(fn, &lf) {
			return &lf
		}
		return nil
	}
	checkClosure := func(cl asyncClosure) {
		// Loop-variable capture: any use of an enclosing loop's
		// iteration variable inside the closure.
		reportedVar := make(map[types.Object]bool)
		ast.Inspect(cl.lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || !cl.loopVars[obj] || reportedVar[obj] {
				return true
			}
			reportedVar[obj] = true
			pass.Reportf(id.Pos(), "%s captures loop variable %s; pass it as an argument so the closure depends only on its inputs",
				cl.kind, obj.Name())
			return true
		})

		// Unsynchronised mutation of captured state.
		writes := closureWrites(pass, cl.lit)
		heldAt := heldAtPositions(pass, cl.lit, resolver, writes)
		reported := make(map[token.Pos]bool)
		for _, w := range writes {
			if reported[w.pos] || heldAt[w.pos] {
				continue
			}
			reported[w.pos] = true
			switch w.kind {
			case "map":
				pass.Reportf(w.pos, "%s writes captured map %s without synchronization; concurrent map writes fault at runtime",
					cl.kind, types.ExprString(w.expr))
			case "field":
				pass.Reportf(w.pos, "%s writes field %s of captured %s with no lock held",
					cl.kind, types.ExprString(w.expr), w.obj.Name())
			default:
				pass.Reportf(w.pos, "%s mutates captured variable %s with no lock held",
					cl.kind, w.obj.Name())
			}
		}
	}

	seen := make(map[*ast.FuncLit]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, cl := range collectAsyncClosures(pass, fd.Body) {
				if seen[cl.lit] {
					continue
				}
				seen[cl.lit] = true
				checkClosure(cl)
			}
		}
	}
}
