package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathDirective marks a function whose warm-path calls must not
// allocate:
//
//	//ecolint:hotpath
//
// placed in the function's doc comment. The hotalloc analyzer checks
// the body of every marked function for heap-allocating constructs and
// flags calls into functions that (transitively) allocate unless the
// callee is itself hotpath-certified — a marked callee's body has
// already been audited in its own package, so cross-package warm chains
// compose without re-walking. Deliberate allocations (grow-on-cap-miss,
// cold plan builds) carry //ecolint:ignore hotalloc <reason>.
const HotpathDirective = "//ecolint:hotpath"

// AllocFact records that a function heap-allocates, directly or
// transitively. Construct is the root cause ("a make call", "a
// composite literal", ...); Via is the function that holds it — the one
// whose body has the construct or calls the deny-listed standard-library
// entry point, as Grow in `pool.Indirect ... via Grow` — and "" when the
// function holds it itself.
type AllocFact struct {
	Construct string
	Via       string
}

// AFact marks AllocFact as a fact.
func (*AllocFact) AFact() {}

func (f *AllocFact) reach() (root, via string) { return f.Construct, f.Via }

// HotFact certifies a //ecolint:hotpath function: its body was checked
// in its own package, so hot callers treat calls to it as clean.
type HotFact struct{}

// AFact marks HotFact as a fact.
func (*HotFact) AFact() {}

// HotAlloc turns the PR-7 zero-alloc warm paths from a test-only
// property into a lint invariant. AllocsPerRun catches a regression
// only on the exact inputs a test drives; this check covers every
// construct the compiler could heap-allocate on any path: composite
// literals, make/new, append onto fresh slices, closures that capture,
// interface boxing, and string<->[]byte conversions, plus — through
// cross-package AllocFacts — calls into anything that transitively
// allocates.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	UsesFacts: true,
	Doc: "flags heap-allocating constructs (make/new, composite literals, fresh-slice append, " +
		"capturing closures, interface boxing, string conversions) in //ecolint:hotpath functions " +
		"and calls from them into transitively allocating code",
	Run: runHotAlloc,
}

// hotallocReach is hotalloc's half of the reach engine: roots are
// heap-allocating constructs, //ecolint:hotpath certifies a function, and
// fact-less standard-library callees are judged by a deny-list.
var hotallocReach = &reachSpec{
	summarise: summariseAllocs,
	newFact:   func(root, via string) reachFact { return &AllocFact{Construct: root, Via: via} },
	certify:   HotpathDirective,
	fallback:  stdlibAllocDesc,
	reportRoot: func(pass *Pass, fn *reachFunc, r reachRoot) {
		pass.Reportf(r.pos, "%s in hotpath function %s allocates because %s", r.what, fn.obj.Name(), r.desc)
	},
	reportCall: func(pass *Pass, fn *reachFunc, c reachCall, root, via string) {
		because := "it reaches " + root
		if via != "" && via != qualifiedName(pass, c.callee) {
			because += " via " + via
		}
		pass.Reportf(c.pos, "call to %s in hotpath function %s allocates because %s",
			qualifiedName(pass, c.callee), fn.obj.Name(), because)
	},
}

func runHotAlloc(pass *Pass) {
	runReach(pass, hotallocReach, func(fn *reachFunc) bool { return fn.certified })
}

// stdlibAllocDesc classifies standard-library callees with no facts:
// a short deny-list of certainly-allocating entry points; everything
// else (math, copy-style helpers, sync.Pool methods) is presumed clean
// so hot code can use the runtime's own zero-alloc primitives.
func stdlibAllocDesc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "" // stdlib methods in use here (pool.Get/Put, ...) are warm-clean
	}
	name := fn.Name()
	switch pkg.Path() {
	case "fmt":
		return "fmt." + name + " (formats into fresh allocations)"
	case "errors":
		if name == "New" || name == "Join" {
			return "errors." + name + " (builds a new error value)"
		}
	case "sort":
		if name == "Slice" || name == "SliceStable" || name == "SliceIsSorted" {
			return "sort." + name + " (boxes the slice into an interface)"
		}
	case "strings", "bytes":
		switch name {
		case "Repeat", "Join", "Split", "SplitN", "Fields", "Map", "Replace", "ReplaceAll", "Clone", "ToUpper", "ToLower", "TrimSpace":
			return pkg.Path() + "." + name + " (returns freshly built data)"
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote", "AppendFloat", "AppendInt":
			return "strconv." + name + " (formats into fresh allocations)"
		}
	}
	return ""
}

// summariseAllocs walks one function body recording direct allocating
// constructs and outgoing calls. Function literal bodies are skipped:
// the literal itself is charged here (as a closure, when it captures),
// and its body runs under whatever discipline its call site has.
func summariseAllocs(pass *Pass, body *ast.BlockStmt, fn *reachFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedOuterLocal(pass, n); capt != "" {
				fn.roots = append(fn.roots, reachRoot{
					pos:  n.Pos(),
					desc: "a closure",
					what: "function literal capturing " + capt,
				})
			}
			return false
		case *ast.CallExpr:
			summariseCall(pass, n, fn)
		case *ast.CompositeLit:
			if desc, what, ok := compositeAllocates(pass, n); ok {
				fn.roots = append(fn.roots, reachRoot{pos: n.Pos(), desc: desc, what: what})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					fn.roots = append(fn.roots, reachRoot{
						pos:  n.Pos(),
						desc: "a composite literal",
						what: "&" + typeLabel(pass, lit) + "{...}",
					})
					// The literal itself is covered by the &T{...}
					// report; don't double-flag value-struct contents.
				}
			}
		case *ast.AssignStmt:
			summariseBoxingAssign(pass, n, fn)
		}
		return true
	})
}

// summariseCall classifies one call expression: builtin allocators,
// string conversions, interface-boxing arguments, or a plain outgoing
// call edge.
func summariseCall(pass *Pass, call *ast.CallExpr, fn *reachFunc) {
	// Conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if from, to, bad := stringConversion(tv.Type, pass.TypeOf(call.Args[0])); bad {
				fn.roots = append(fn.roots, reachRoot{
					pos:  call.Pos(),
					desc: "a string conversion",
					what: "conversion from " + from + " to " + to,
				})
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				fn.roots = append(fn.roots, reachRoot{pos: call.Pos(), desc: "a make call", what: "make(" + typeLabelOf(pass, call) + ")"})
			case "new":
				fn.roots = append(fn.roots, reachRoot{pos: call.Pos(), desc: "a new call", what: "new(...)"})
			case "append":
				if appendStartsFresh(call) {
					fn.roots = append(fn.roots, reachRoot{
						pos:  call.Pos(),
						desc: "an append onto a fresh slice",
						what: "append onto a non-reused slice",
					})
				}
			}
			return
		}
	}
	callee := calleeFunc(pass, call)
	if callee == nil {
		return // dynamic call through a func value or interface: no summary
	}
	fn.calls = append(fn.calls, reachCall{pos: call.Pos(), callee: callee})
	summariseBoxingArgs(pass, call, callee, fn)
}

// appendStartsFresh reports whether an append call builds a new slice
// rather than growing one amortised in place: the grow idiom
// `x = append(x, ...)` is exempt; `append([]byte(nil), ...)` and
// appends whose result lands in a different variable are not. The
// syntactic check runs over the enclosing statement, so only appends
// used outside the reuse idiom are counted — conservatively, any
// append whose first argument is a nil literal, a conversion or a
// fresh literal.
func appendStartsFresh(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch arg := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		return arg.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		return true // append([]byte(nil), ...), append(clone(x), ...)
	}
	return false
}

// summariseBoxingArgs flags arguments whose concrete non-pointer-shaped
// values convert to interface parameters (each such conversion heap-
// allocates the boxed copy). Pointer-shaped values (pointers, maps,
// channels, funcs) ride in the interface word for free. A generic callee
// is checked against its instantiated signature: an argument bound to a
// type parameter is passed as its type argument, never boxed into the
// constraint.
func summariseBoxingArgs(pass *Pass, call *ast.CallExpr, callee *types.Func, fn *reachFunc) {
	sig, _ := pass.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if stdlibAllocDesc(callee) != "" {
		return // the call itself is already flagged; boxing is implied
	}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = s.Elem()
			}
		case i < n:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
			continue // constants box to static read-only data
		}
		at := pass.TypeOf(arg)
		if at == nil || !boxingAllocates(at) {
			continue
		}
		fn.roots = append(fn.roots, reachRoot{
			pos:  arg.Pos(),
			desc: "an interface conversion",
			what: "argument " + types.ExprString(arg) + " boxed into " + pt.String(),
		})
	}
}

// summariseBoxingAssign flags `var x any = concrete` style stores into
// interface-typed targets.
func summariseBoxingAssign(pass *Pass, a *ast.AssignStmt, fn *reachFunc) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		lt := pass.TypeOf(lhs)
		if lt == nil {
			continue
		}
		if _, isIface := lt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if tv, ok := pass.Info.Types[a.Rhs[i]]; ok && tv.Value != nil {
			continue // constants box to static read-only data
		}
		rt := pass.TypeOf(a.Rhs[i])
		if rt == nil || !boxingAllocates(rt) {
			continue
		}
		fn.roots = append(fn.roots, reachRoot{
			pos:  a.Rhs[i].Pos(),
			desc: "an interface conversion",
			what: types.ExprString(a.Rhs[i]) + " boxed into " + lt.String(),
		})
	}
}

// boxingAllocates reports whether converting a value of type t to an
// interface heap-allocates: true for everything that is not already an
// interface or pointer-shaped.
func boxingAllocates(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UntypedNil && b.Kind() != types.UnsafePointer
	}
	return true
}

// compositeAllocates classifies a composite literal: slice and map
// literals always allocate backing storage; value struct and array
// literals live in the frame (the escaping &T{...} form is flagged at
// its unary & site).
func compositeAllocates(pass *Pass, lit *ast.CompositeLit) (desc, what string, ok bool) {
	t := pass.TypeOf(lit)
	if t == nil {
		return "", "", false
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "a composite literal", typeLabel(pass, lit) + "{...} slice literal", true
	case *types.Map:
		return "a composite literal", typeLabel(pass, lit) + "{...} map literal", true
	}
	return "", "", false
}

// stringConversion reports string <-> []byte/[]rune conversions, which
// copy their operand into fresh storage.
func stringConversion(to, from types.Type) (fromLabel, toLabel string, bad bool) {
	if to == nil || from == nil {
		return "", "", false
	}
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	switch {
	case isString(to) && isByteOrRuneSlice(from):
		return from.String(), "string", true
	case isByteOrRuneSlice(to) && isString(from):
		return "string", to.String(), true
	}
	return "", "", false
}

// capturedOuterLocal returns the name of one variable a function
// literal captures from an enclosing function (forcing a heap-
// allocated closure), or "" when the literal is capture-free — a
// capture-free literal compiles to a static function value.
func capturedOuterLocal(pass *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() != pass.Pkg || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level var: no capture
		}
		// Any local declared outside the literal is a capture
		// (enclosing-function locals, parameters, receivers).
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = id.Name
		}
		return true
	})
	return captured
}

// typeLabelOf renders the made type of a make call.
func typeLabelOf(pass *Pass, call *ast.CallExpr) string {
	if t := pass.TypeOf(call); t != nil {
		return t.String()
	}
	return "..."
}

// typeLabel renders a composite literal's type compactly.
func typeLabel(pass *Pass, lit *ast.CompositeLit) string {
	if t := pass.TypeOf(lit); t != nil {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		return t.String()
	}
	return "..."
}
