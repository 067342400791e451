package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeterministicDirective marks a package whose outputs must be
// byte-reproducible: the golden span tree, the golden SHM survey,
// seeded fault plans and every simulation stage feeding them. Place it
// in any file of the package (conventionally next to the package
// clause):
//
//	//ecolint:deterministic
//
// Inside a marked package the determinism analyzer flags every call
// path that reaches a nondeterminism source.
const DeterministicDirective = "//ecolint:deterministic"

// NondetFact records that a function transitively reaches a
// nondeterminism source. It is exported on package-level functions and
// methods so that passes over dependent packages can flag calls into
// tainted code without re-walking it.
type NondetFact struct {
	// Source is the root cause, e.g. "time.Now" or "map iteration order".
	Source string `json:"source"`
	// Via is the qualified name of the first callee on the path from the
	// carrier to the source, "" when the carrier calls the source
	// directly.
	Via string `json:"via,omitempty"`
}

// AFact marks NondetFact as a fact.
func (*NondetFact) AFact() {}

// Determinism flags, inside packages marked //ecolint:deterministic,
// every call that directly or transitively reaches a wall-clock read
// (time.Now / time.Since / time.Until), the process-global math/rand
// source, or a range over a map that writes to an output sink while
// iterating (map order is randomised per run). Reproducibility is this
// repo's correctness substrate — golden artefacts are compared
// byte-for-byte — so a nondeterministic call threaded in three layers
// down breaks CI the same way sensor-clock drift breaks a long-term SHM
// baseline. Transitive reach is computed via cross-package NondetFacts,
// so the flag lands on the deterministic package's own call site: the
// place where the fix (inject a clock, seed a source) belongs.
// Deliberate exceptions use //ecolint:ignore determinism <reason>.
var Determinism = &Analyzer{
	Name:      "determinism",
	UsesFacts: true,
	Doc: "flags calls in //ecolint:deterministic packages that transitively reach " +
		"time.Now/Since/Until, the global math/rand source, or map-ordered output",
	Run: runDeterminism,
}

// nondetTimeFuncs are the wall-clock reads in package time.
var nondetTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// detRandConstructors are math/rand functions that are pure
// constructors — safe because the caller controls the seed.
var detRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// sinkWriteMethods are method names that emit bytes to an output when
// called inside a map range (order-dependent output).
var sinkWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// directSource classifies a call (or map range) as a nondeterminism
// root, returning a description or "".
func directSource(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "" // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if nondetTimeFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !detRandConstructors[fn.Name()] {
			return fn.Pkg().Path() + "." + fn.Name() + " (process-global source)"
		}
	}
	return ""
}

// funcInfo is the per-function summary the intra-package propagation
// works on.
type funcInfo struct {
	obj     *types.Func
	decl    *ast.FuncDecl
	sources []sourceAt  // direct nondeterminism roots in the body
	calls   []callAt    // resolved callees, in source order
	fact    *NondetFact // nil until tainted
}

type sourceAt struct {
	pos  token.Pos
	desc string
}

type callAt struct {
	pos    token.Pos
	callee *types.Func
}

func runDeterminism(pass *Pass) {
	// Facts are computed and exported for every package — marked or not —
	// so that deterministic dependents can see taint through ordinary
	// helper packages. Reporting (pass 4) happens only in marked packages.
	marked := hasDirective(pass.Files, DeterministicDirective)

	// Pass 1: summarise every declared function: direct sources and
	// outgoing calls. Function literals are charged to their enclosing
	// declaration — a closure built around time.Now makes the builder
	// nondeterministic to callers.
	var funcs []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
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
			fi := &funcInfo{obj: obj, decl: fd}
			summarise(pass, fd.Body, fi)
			funcs = append(funcs, fi)
			byObj[obj] = fi
		}
	}

	// Pass 2: propagate taint to a fixpoint. A function is tainted by a
	// direct source, by calling a tainted same-package function, or by
	// calling an imported function carrying a NondetFact.
	for _, fi := range funcs {
		if len(fi.sources) > 0 {
			fi.fact = &NondetFact{Source: fi.sources[0].desc}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if fi.fact != nil {
				continue
			}
			for _, c := range fi.calls {
				if desc, via, ok := calleeTaint(pass, byObj, c.callee); ok {
					fi.fact = &NondetFact{Source: desc, Via: via}
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: export facts so dependent packages see the taint.
	for _, fi := range funcs {
		if fi.fact != nil {
			pass.ExportObjectFact(fi.obj, fi.fact)
		}
	}

	// Pass 4: report, only inside marked packages. Each function gets
	// one finding per offending call site: direct sources first, then
	// calls into tainted functions.
	if !marked || pass.FactsOnly {
		return
	}
	for _, fi := range funcs {
		for _, s := range fi.sources {
			pass.Reportf(s.pos, "nondeterministic call to %s in a deterministic package", s.desc)
		}
		for _, c := range fi.calls {
			if desc, _, ok := calleeTaint(pass, byObj, c.callee); ok {
				pass.Reportf(c.pos, "call to %s, which transitively reaches %s, in a deterministic package",
					qualifiedName(pass, c.callee), desc)
			}
		}
	}
}

// calleeTaint reports whether calling fn introduces nondeterminism,
// with the root source description and the via link for the message.
func calleeTaint(pass *Pass, byObj map[*types.Func]*funcInfo, fn *types.Func) (desc, via string, ok bool) {
	if fn == nil {
		return "", "", false
	}
	if fi, same := byObj[fn]; same {
		if fi.fact == nil {
			return "", "", false
		}
		return fi.fact.Source, qualifiedName(pass, fn), true
	}
	var fact NondetFact
	if pass.ImportObjectFact(fn, &fact) {
		return fact.Source, qualifiedName(pass, fn), true
	}
	return "", "", false
}

// summarise walks one function body recording direct sources and
// outgoing calls. Direct sources inside the body win over the same
// call recorded as an outgoing edge (a call is never both).
func summarise(pass *Pass, body *ast.BlockStmt, fi *funcInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc := directSource(pass, n); desc != "" {
				fi.sources = append(fi.sources, sourceAt{pos: n.Pos(), desc: desc})
				return true
			}
			if fn := calleeFunc(pass, n); fn != nil {
				fi.calls = append(fi.calls, callAt{pos: n.Pos(), callee: fn})
			}
		case *ast.RangeStmt:
			if pos, ok := mapRangeWritesOutput(pass, n); ok {
				fi.sources = append(fi.sources, sourceAt{pos: pos, desc: "map iteration order (range writes to an output sink)"})
			}
		}
		return true
	})
	sort.Slice(fi.sources, func(i, j int) bool { return fi.sources[i].pos < fi.sources[j].pos })
}

// mapRangeWritesOutput detects `for k := range m { ...fmt.Fprintf(w,
// ...)... }` over a map: the iteration order leaks straight into an
// output stream. Collect-then-sort loops don't trip it — they contain
// no sink call inside the range body.
func mapRangeWritesOutput(pass *Pass, rng *ast.RangeStmt) (token.Pos, bool) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return token.NoPos, false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return token.NoPos, false
	}
	var at token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if at.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSinkCall(pass, call) {
			at = call.Pos()
			return false
		}
		return true
	})
	return at, at.IsValid()
}

// isSinkCall reports whether the call emits output: a fmt print
// function or a Write* method (io.Writer, bytes.Buffer,
// strings.Builder, ...).
func isSinkCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return sinkWriteMethods[fn.Name()]
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	}
	return false
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

// hasDirective reports whether any comment in the files is exactly the
// directive (modulo trailing text).
func hasDirective(files []*ast.File, directive string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), directive) {
					return true
				}
			}
		}
	}
	return false
}
