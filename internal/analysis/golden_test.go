package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ecocapsule/internal/analysis"
)

// wantRe extracts the quoted patterns of a `// want "p1" "p2"` comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantPatternRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"` + "|`([^`]*)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadFixture type-checks every package under testdata/src/<name>,
// deepest-first so that fixture packages can import their own sub-packages
// (e.g. errchecklite imports errchecklite/internal/coding).
func loadFixture(t *testing.T, name string) []*analysis.Package {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	sort.Slice(dirs, func(i, j int) bool {
		return strings.Count(dirs[i], string(filepath.Separator)) > strings.Count(dirs[j], string(filepath.Separator))
	})
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	srcRoot := filepath.Join("testdata", "src")
	for _, dir := range dirs {
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil {
			t.Fatalf("rel path for %s: %v", dir, err)
		}
		importPath := filepath.ToSlash(rel)
		pkg, err := loader.CheckFixture(importPath, dir)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", importPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s contains no packages", name)
	}
	return pkgs
}

// collectWants reads the `// want` expectations out of the fixture sources.
func collectWants(t *testing.T, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, pm := range wantPatternRe.FindAllStringSubmatch(m[1], -1) {
						text := pm[1]
						if pm[2] != "" {
							text = pm[2]
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, text, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// checkGolden diffs reported diagnostics against the fixture expectations.
func checkGolden(t *testing.T, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) {
	t.Helper()
	wants := collectWants(t, pkgs)
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestGolden(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *analysis.Analyzer
	}{
		{"locksafety", analysis.LockSafety},
		{"errchecklite", analysis.ErrCheckLite},
		{"floatcmp", analysis.FloatCmp},
		{"metricname", analysis.MetricName},
		{"determinism", analysis.Determinism},
		{"guardedby", analysis.GuardedBy},
		{"closurecapture", analysis.ClosureCapture},
		{"atomicmix", analysis.AtomicMix},
		{"dimcheck", analysis.DimCheck},
		{"unitsafety", analysis.DimCheck}, // the bare unit-multiplier rule
		{"hotalloc", analysis.HotAlloc},
		{"suppress", analysis.DimCheck},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			checkGolden(t, loadFixture(t, c.fixture), []*analysis.Analyzer{c.analyzer})
		})
	}
}

// TestIgnoreMissingReason verifies that a reason-less directive suppresses
// nothing and is itself reported. (It cannot be a `// want` fixture: a want
// comment appended to the directive line would parse as the reason.)
func TestIgnoreMissingReason(t *testing.T) {
	pkgs := loadFixture(t, "suppressbad")
	diags := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.DimCheck})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(diags), diagList(diags))
	}
	if diags[0].Analyzer != "ecolint" || !strings.Contains(diags[0].Message, "missing a reason") {
		t.Errorf("first diagnostic should flag the malformed directive, got: %s", diags[0])
	}
	if diags[1].Analyzer != "dimcheck" || !strings.Contains(diags[1].Message, "units.MS") {
		t.Errorf("the bare multiplier must not be suppressed by a reason-less directive, got: %s", diags[1])
	}
}

// TestRunOnRealRepo analyzes the repository itself — test files included
// — and asserts the committed tree is clean: the same gate verify.sh
// applies in CI.
func TestRunOnRealRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short-mode work")
	}
	diags, stats, err := analysis.Run(analysis.Options{IncludeTests: true}, "ecocapsule/...")
	if err != nil {
		t.Fatalf("running analyzers over the module: %v", err)
	}
	if stats.Targets == 0 {
		t.Fatal("matched no packages")
	}
	if len(diags) > 0 {
		t.Errorf("committed tree has %d findings:\n%s", len(diags), diagList(diags))
	}
}

func diagList(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
