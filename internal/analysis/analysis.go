package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects the pass's package and calls
// pass.Reportf for every finding.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //ecolint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer catches and
	// why it matters for SHM data integrity.
	Doc string
	// UsesFacts marks analyzers that export or import cross-package
	// facts; only these run in facts-only passes over dependency
	// packages.
	UsesFacts bool
	// Run performs the check.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the run-wide cross-package fact table (see facts.go).
	// Nil when the driver runs without fact support.
	Facts *Facts
	// FactsOnly suppresses diagnostics: the pass runs purely to export
	// facts for dependent packages (used for dependency packages outside
	// the requested patterns, and for the plain variant of a package
	// whose diagnostics come from its test-augmented variant).
	FactsOnly bool
	// report receives raw (pre-suppression) diagnostics.
	report func(Diagnostic)
}

// Reportf records a finding at pos. Facts-only passes drop it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.FactsOnly {
		return
	}
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// IgnoreDirective is the comment form that suppresses a finding:
//
//	//ecolint:ignore <analyzer> <reason>
//
// placed on the offending line or on the line immediately above it. The
// reason is mandatory — undocumented suppressions are themselves findings,
// and so are directives whose <analyzer> is neither a suite analyzer nor
// "all", and directives for an analyzer that ran and found nothing on
// either line: they suppress nothing.
const IgnoreDirective = "//ecolint:ignore"

type ignoreKey struct {
	file string
	line int
}

type ignoreEntry struct {
	analyzer  string
	hasReason bool
	pos       token.Position
}

// A directive is one //ecolint:<name> comment: the fields after the
// name, and the comment's position.
type directive struct {
	args []string
	pos  token.Pos
}

// directivesIn returns, in order, every comment of cg that starts with
// prefix once surrounding space is trimmed.
func directivesIn(cg *ast.CommentGroup, prefix string) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), prefix); ok {
			out = append(out, directive{args: strings.Fields(rest), pos: c.Pos()})
		}
	}
	return out
}

// collectIgnores scans a package's comments for ignore directives, keyed by
// the line they apply to.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[ignoreKey][]ignoreEntry {
	ignores := make(map[ignoreKey][]ignoreEntry)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range directivesIn(cg, IgnoreDirective) {
				if len(d.args) == 0 {
					continue
				}
				pos := fset.Position(d.pos)
				entry := ignoreEntry{analyzer: d.args[0], hasReason: len(d.args) > 1, pos: pos}
				// The directive covers its own line and the line below, so
				// it works both inline and as a standalone comment above
				// the finding.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := ignoreKey{file: pos.Filename, line: line}
					ignores[k] = append(ignores[k], entry)
				}
			}
		}
	}
	return ignores
}

// analyzeUnit applies the analyzers to one type-checked unit (a plain
// package, a package merged with its in-package test files, or an
// external _test package), applying ignore directives, and returns the
// surviving diagnostics unsorted. When factsOnly is set, only
// fact-producing analyzers run and nothing is reported, directives
// included: a package with test files is judged once, in its
// test-merged unit.
func analyzeUnit(pkg *Package, analyzers []*Analyzer, facts *Facts, factsOnly bool) []Diagnostic {
	var diags []Diagnostic
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	used := make(map[token.Position]bool) // directives that suppressed a finding
	for _, a := range analyzers {
		if factsOnly && !a.UsesFacts {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Facts:     facts,
			FactsOnly: factsOnly,
		}
		pass.report = func(d Diagnostic) {
			for _, e := range ignores[ignoreKey{file: d.Pos.Filename, line: d.Pos.Line}] {
				if e.hasReason && (e.analyzer == d.Analyzer || e.analyzer == "all") {
					used[e.pos] = true
					return
				}
			}
			diags = append(diags, d)
		}
		a.Run(pass)
	}
	if factsOnly {
		return diags
	}
	for k, entries := range ignores {
		for _, e := range entries {
			if k.line != e.pos.Line {
				continue // each directive is filed under two lines; report it once
			}
			var msg string
			switch {
			case !e.hasReason:
				msg = fmt.Sprintf("ignore directive for %q is missing a reason (//ecolint:ignore <analyzer> <reason>)", e.analyzer)
			case !isAnalyzerName(e.analyzer):
				msg = fmt.Sprintf("ignore directive names %q, which is not an analyzer (see ecolint -list)", e.analyzer)
			case !used[e.pos] && ran(analyzers, e.analyzer):
				msg = fmt.Sprintf("ignore directive for %q suppresses nothing: no finding on its line or the next", e.analyzer)
			default:
				continue
			}
			diags = append(diags, Diagnostic{Pos: e.pos, Analyzer: "ecolint", Message: msg})
		}
	}
	return diags
}

// ran reports whether a directive for name can be judged against this
// run's findings: its analyzer ran, or, for "all", the whole suite did
// (analyzers is always a subset of All()). A directive for an analyzer
// left out by -only is not judged.
func ran(analyzers []*Analyzer, name string) bool {
	if name == "all" {
		return len(analyzers) == len(All())
	}
	return slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == name })
}

// sortDiagnostics orders diagnostics by file, line, analyzer and
// message — a total order, so sequential and parallel runs produce
// byte-identical output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// isAnalyzerName reports whether an ignore directive's analyzer field
// can match a finding: the name of a suite analyzer, or "all". It checks
// the full suite, not a -only subset, so a run of a few analyzers does
// not flag directives meant for the others.
func isAnalyzerName(name string) bool {
	if name == "all" {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// All returns the full EcoCapsule analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockSafety,
		ErrCheckLite,
		FloatCmp,
		MetricName,
		Determinism,
		GuardedBy,
		ClosureCapture,
		AtomicMix,
		DimCheck,
		HotAlloc,
	}
}
