package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
// nondeterminism source. It is exported on exported functions and
// methods so that passes over dependent packages can flag calls into
// tainted code without re-walking it.
type NondetFact struct {
	// Source is the root cause, e.g. "time.Now" or "map iteration order".
	Source string
	// Via is the function that holds the source (its body makes the
	// call or the map range), "" when the carrier holds it itself.
	Via string
}

// AFact marks NondetFact as a fact.
func (*NondetFact) AFact() {}

func (f *NondetFact) reach() (root, via string) { return f.Source, f.Via }

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

// determinismReach is determinism's half of the reach engine: roots are
// wall-clock reads, global-source draws and map ranges that write to an
// output sink.
var determinismReach = &reachSpec{
	summarise: summariseSources,
	newFact:   func(root, via string) reachFact { return &NondetFact{Source: root, Via: via} },
	reportRoot: func(pass *Pass, _ *reachFunc, r reachRoot) {
		pass.Reportf(r.pos, "nondeterministic call to %s in a deterministic package", r.desc)
	},
	reportCall: func(pass *Pass, _ *reachFunc, c reachCall, root, _ string) {
		pass.Reportf(c.pos, "call to %s, which transitively reaches %s, in a deterministic package",
			qualifiedName(pass, c.callee), root)
	},
}

func runDeterminism(pass *Pass) {
	// Facts are computed and exported for every package — marked or not —
	// so that deterministic dependents can see taint through ordinary
	// helper packages. Reporting happens only in marked packages.
	marked := false
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			marked = marked || len(directivesIn(cg, DeterministicDirective)) > 0
		}
	}
	runReach(pass, determinismReach, func(*reachFunc) bool { return marked })
}

// summariseSources walks one function body recording direct sources and
// outgoing calls. Function literals are charged to their enclosing
// declaration — a closure built around time.Now makes the builder
// nondeterministic to callers. A call that is a direct source is not
// also recorded as an outgoing edge.
func summariseSources(pass *Pass, body *ast.BlockStmt, fn *reachFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc := directSource(pass, n); desc != "" {
				fn.roots = append(fn.roots, reachRoot{pos: n.Pos(), desc: desc})
				return true
			}
			if callee := calleeFunc(pass, n); callee != nil {
				fn.calls = append(fn.calls, reachCall{pos: n.Pos(), callee: callee})
			}
		case *ast.RangeStmt:
			if pos, ok := mapRangeWritesOutput(pass, n); ok {
				fn.roots = append(fn.roots, reachRoot{pos: pos, desc: "map iteration order (range writes to an output sink)"})
			}
		}
		return true
	})
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
