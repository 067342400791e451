package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the one reach engine of the fact-propagating analyzers:
// determinism (a root is a nondeterminism source) and hotalloc (a root is
// a heap-allocating construct). Each supplies a reachSpec with its root
// classifier and its wording; the engine summarises every declared
// function through it, propagates "reaches a root" over same-package
// calls to a fixpoint, exports the result as facts for dependent
// packages, and reports inside the analyzer's marked scope. One resolver
// answers "what does calling this function reach?" for the fixpoint and
// the report alike.

// reachSpec is what one reach analyzer supplies to the engine.
type reachSpec struct {
	// summarise records the direct roots and the statically resolved
	// calls of one function body into fn, calls in source order.
	summarise func(pass *Pass, body *ast.BlockStmt, fn *reachFunc)
	// newFact wraps a reach in the analyzer's fact type.
	newFact func(root, via string) reachFact
	// certify, when set, is a doc-comment directive that certifies a
	// function: its body is audited where it is declared, so it exports
	// a HotFact instead of a reach and its callers treat it as clean.
	certify string
	// fallback classifies a callee that carries no fact, returning its
	// root or ""; nil treats every such callee as clean.
	fallback func(fn *types.Func) string
	// reportRoot words the finding at a direct root of fn; reportCall
	// the finding at a call whose callee reaches root, held by the
	// function via ("" when the callee is itself the root).
	reportRoot func(pass *Pass, fn *reachFunc, r reachRoot)
	reportCall func(pass *Pass, fn *reachFunc, c reachCall, root, via string)
}

// reachFact is the fact a reach analyzer exports on an exported
// function that reaches a root.
type reachFact interface {
	Fact
	reach() (root, via string)
}

// reachFunc is one declared function's summary.
type reachFunc struct {
	obj       *types.Func
	certified bool        // carries the spec's certify directive
	roots     []reachRoot // direct roots in the body, by position
	calls     []reachCall // statically resolved callees, in source order
	// root is what the function reaches, "" while it reaches nothing;
	// via is the function holding that root, "" when this one does.
	root, via string
}

// reachRoot is one direct root in a body.
type reachRoot struct {
	pos  token.Pos
	desc string // the root cause facts carry: "time.Now", "a make call", ...
	what string // the rooted construct as hotalloc renders it
}

// reachCall is one statically resolved call in a body.
type reachCall struct {
	pos    token.Pos
	callee *types.Func
}

// runReach runs spec over pass's package, reporting the findings of the
// functions inScope selects.
func runReach(pass *Pass, spec *reachSpec, inScope func(*reachFunc) bool) {
	var funcs []*reachFunc
	byObj := make(map[*types.Func]*reachFunc)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fn := &reachFunc{obj: obj}
			if spec.certify != "" {
				fn.certified = len(directivesIn(fd.Doc, spec.certify)) > 0
			}
			spec.summarise(pass, fd.Body, fn)
			sort.Slice(fn.roots, func(i, j int) bool { return fn.roots[i].pos < fn.roots[j].pos })
			funcs = append(funcs, fn)
			byObj[obj] = fn
		}
	}

	// resolve reports what calling callee reaches and the function holding
	// that root. It looks at the same-package record, then at a certified
	// callee, then at the imported fact, then at the spec's fallback.
	resolve := func(callee *types.Func) (root, via string, ok bool) {
		if fn, same := byObj[callee]; same {
			root, via = fn.root, fn.via
		} else if spec.certify != "" && pass.ImportObjectFact(callee, &HotFact{}) {
			return "", "", false
		} else if f := spec.newFact("", ""); pass.ImportObjectFact(callee, f) {
			root, via = f.reach()
		} else if spec.fallback != nil {
			root = spec.fallback(callee)
			return root, "", root != ""
		}
		if root == "" {
			return "", "", false
		}
		if via == "" {
			via = qualifiedName(pass, callee)
		}
		return root, via, true
	}

	// Propagate to a fixpoint: a function reaches its first direct root,
	// or else what its first reaching callee reaches. Certified functions
	// reach nothing: their deliberate (suppressed) roots must not taint
	// callers that stay on the certified path.
	for _, fn := range funcs {
		if !fn.certified && len(fn.roots) > 0 {
			fn.root = fn.roots[0].desc
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if fn.root != "" || fn.certified {
				continue
			}
			for _, c := range fn.calls {
				if root, via, ok := resolve(c.callee); ok {
					fn.root, fn.via = root, via
					changed = true
					break
				}
			}
		}
	}

	// Export. Reach facts only matter for objects a dependent package
	// can name, so unexported functions are skipped to keep the fact
	// table lean.
	for _, fn := range funcs {
		switch {
		case fn.certified:
			pass.ExportObjectFact(fn.obj, &HotFact{})
		case fn.root != "" && fn.obj.Exported():
			pass.ExportObjectFact(fn.obj, spec.newFact(fn.root, fn.via))
		}
	}

	// Report: one finding per direct root and per reaching call.
	if pass.FactsOnly {
		return
	}
	for _, fn := range funcs {
		if !inScope(fn) {
			continue
		}
		for _, rt := range fn.roots {
			spec.reportRoot(pass, fn, rt)
		}
		for _, c := range fn.calls {
			if root, via, ok := resolve(c.callee); ok {
				spec.reportCall(pass, fn, c, root, via)
			}
		}
	}
}

// qualifiedName renders fn for messages: "pkg.F" for imported
// functions, "F" or "T.M" for same-package ones.
func qualifiedName(pass *Pass, fn *types.Func) string {
	key, ok := ObjectKey(fn)
	if !ok {
		key = fn.Name()
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + key
	}
	return key
}
