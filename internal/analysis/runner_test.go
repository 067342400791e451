package analysis_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ecocapsule/internal/analysis"
)

// writeModule materialises a throwaway Go module for driver tests:
//
//	clock    — helper package reading the wall clock (taint source)
//	sim      — //ecolint:deterministic, calls clock.Stamp through an import
//	geometry — exact float comparison (named for the floatcmp analyzer's
//	           package scope); its _test.go file compares floats exactly
//	           too, which floatcmp exempts, and spells a bare unit
//	           multiplier into an annotated constant, which dimcheck
//	           reports; two ignore directives match no finding: one for
//	           determinism, which runs, and one for hotalloc, which does
//	           not
//
// The cross-package edge (sim → clock) exercises the facts layer; the
// _test.go file exercises test-unit loading.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module cachemod\n\ngo 1.21\n",
		"clock/clock.go": `package clock

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Pure is untainted.
func Pure(x int64) int64 { return x + 1 }
`,
		"sim/sim.go": `// Package sim is a deterministic stage.
package sim

//ecolint:deterministic

import "cachemod/clock"

// Tainted reaches time.Now through the clock helper.
func Tainted() int64 { return clock.Stamp() }

// Clean stays inside deterministic code.
func Clean() int64 { return clock.Pure(41) }
`,
		"geometry/geometry.go": `package geometry

// Eq compares floats exactly.
func Eq(a, b float64) bool { return a == b }

//ecolint:ignore determinism stale: nothing here reads the clock
var half = 0.5

//ecolint:ignore hotalloc not judged: hotalloc is not in this run
var third = 1.0 / 3
`,
		"geometry/geometry_test.go": `package geometry

import "testing"

const tick = 1e-3 //ecolint:unit s

func TestEq(t *testing.T) {
	x, y := 0.1+0.2, 0.3
	if x == y {
		t.Log("equal")
	}
	_ = Eq(x, y)
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// suite is the analyzer subset the driver tests run: two facts-using
// analyzers (cross-package taint, unit annotations) and one purely local
// analyzer.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{analysis.Determinism, analysis.FloatCmp, analysis.DimCheck}
}

func formatDiags(diags []analysis.Diagnostic) string {
	var b strings.Builder
	analysis.FormatText(&b, diags)
	return b.String()
}

// TestAnnotationFactFlip guards a fact that lives in a comment: an edit
// that changes nothing but one //ecolint:unit line in a dependency must
// change the dependent's findings. Unit annotations (like guardedby and
// hotpath directives) flow into dependent packages as facts, so two
// fresh runs either side of the comment-only edit must disagree, and the
// second must name the cross-package mismatch.
func TestAnnotationFactFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list and type-checks stdlib deps")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module factflip\n\ngo 1.21\n",
		"rates/rates.go": `package rates

// SampleRate is the ADC rate.
var SampleRate = 48000.0
`,
		"app/app.go": `package app

import "factflip/rates"

// window is the demodulation window.
//
//ecolint:unit s
var window = 0.005

// Mix folds the rate into the window. Dimensionally nonsense — but only
// visible once rates.SampleRate carries its hz annotation.
func Mix() float64 { return rates.SampleRate + window }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := analysis.Options{
		Dir:       dir,
		Analyzers: []*analysis.Analyzer{analysis.DimCheck},
	}

	// No annotation on SampleRate, so the add is dimensionally silent.
	before, _, err := analysis.Run(opts, "./...")
	if err != nil {
		t.Fatalf("unannotated run: %v", err)
	}
	if out := formatDiags(before); out != "" {
		t.Fatalf("unannotated tree produced findings:\n%s", out)
	}

	// The comment-only edit: annotate SampleRate hz. No code changes.
	ratesSrc := filepath.Join(dir, "rates", "rates.go")
	src, err := os.ReadFile(ratesSrc)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(src),
		"// SampleRate is the ADC rate.",
		"// SampleRate is the ADC rate.\n//\n//ecolint:unit hz", 1)
	if edited == string(src) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(ratesSrc, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	// The flipped UnitFact must now surface the mismatch inside app.
	after, _, err := analysis.Run(opts, "./...")
	if err != nil {
		t.Fatalf("annotated run: %v", err)
	}
	out := formatDiags(after)
	if !strings.Contains(out, "app/app.go") || !strings.Contains(out, "unit mismatch") ||
		!strings.Contains(out, "rates.SampleRate") {
		t.Errorf("annotated run missing the cross-package unit mismatch in app:\n%s", out)
	}
}

// TestPartialPatternUsesDependencyFacts runs a pattern that names only
// sim: clock is not a target, so it is analyzed for its facts alone, and
// sim's cross-package determinism finding must still surface while
// nothing is reported inside clock.
func TestPartialPatternUsesDependencyFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list and type-checks stdlib deps")
	}
	dir := writeModule(t)
	diags, stats, err := analysis.Run(analysis.Options{Dir: dir, Analyzers: suite()}, "./sim")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Targets != 1 {
		t.Errorf("targets = %d, want 1", stats.Targets)
	}
	out := formatDiags(diags)
	if len(diags) != 1 || !strings.Contains(out, "sim.go") || !strings.Contains(out, "clock.Stamp") {
		t.Errorf("want exactly sim's determinism finding through clock.Stamp, got:\n%s", out)
	}
}

// TestParallelMatchesSequential asserts the level schedule is
// observationally deterministic: whatever the worker interleaving, the
// ordered diagnostics are byte-identical to a run at GOMAXPROCS=1, where
// the conc pool runs every unit inline on one goroutine. Run under -race
// this also exercises the shared FileSet, the completed-types map and the
// facts table from many goroutines at once.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list and type-checks stdlib deps")
	}
	dir := writeModule(t)
	opts := analysis.Options{Dir: dir, Analyzers: suite(), IncludeTests: true}
	run := func(procs int) (string, *analysis.Stats) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		diags, stats, err := analysis.Run(opts, "./...")
		if err != nil {
			t.Fatalf("run at GOMAXPROCS=%d: %v", procs, err)
		}
		return formatDiags(diags), stats
	}

	want, stats := run(1)
	if stats.Targets != 3 {
		t.Fatalf("targets = %d, want 3", stats.Targets)
	}
	if !strings.Contains(want, "determinism") || !strings.Contains(want, "clock.Stamp") {
		t.Errorf("sequential run missing the cross-package determinism finding:\n%s", want)
	}
	if got := strings.Count(want, "floatcmp"); got != 1 || !strings.Contains(want, "geometry.go:4: floatcmp") {
		t.Errorf("sequential run has %d floatcmp findings, want 1 (in geometry.go; geometry_test.go is exempt):\n%s", got, want)
	}
	if got := strings.Count(want, "dimcheck"); got != 1 || !strings.Contains(want, "geometry_test.go:5: dimcheck") {
		t.Errorf("sequential run has %d dimcheck findings, want 1 (the multiplier in geometry_test.go):\n%s", got, want)
	}
	// geometry.go is in both the plain unit and the test-merged unit; its
	// stale directive is reported once.
	if got := strings.Count(want, ": ecolint: "); got != 1 || !strings.Contains(want, "geometry.go:6: ecolint: ignore directive for \"determinism\" suppresses nothing") {
		t.Errorf("sequential run has %d directive findings, want 1 (the stale determinism directive in geometry.go):\n%s", got, want)
	}

	for i := 0; i < 3; i++ {
		if got, _ := run(8); got != want {
			t.Errorf("parallel run %d diverged from sequential:\nsequential:\n%s\nparallel:\n%s", i, want, got)
		}
	}
}
