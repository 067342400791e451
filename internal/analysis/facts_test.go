package analysis_test

import (
	"go/token"
	"go/types"
	"testing"

	"ecocapsule/internal/analysis"
)

// TestImportedFactIsACopy pins the import half of the Fact contract:
// each import copies the stored struct, so reassigning a scalar field
// of one imported copy changes neither a later import nor the value the
// exporter stored.
func TestImportedFactIsACopy(t *testing.T) {
	pkg := types.NewPackage("example.com/clock", "clock")
	fn := types.NewFunc(token.NoPos, pkg, "Stamp", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	pkg.Scope().Insert(fn)
	pass := &analysis.Pass{Pkg: pkg, Facts: analysis.NewFacts()}

	want := analysis.NondetFact{Source: "time.Now", Via: "wallClock"}
	exported := want
	pass.ExportObjectFact(fn, &exported)

	var first, second analysis.NondetFact
	if !pass.ImportObjectFact(fn, &first) {
		t.Fatal("first import found no fact")
	}
	first.Source = "math/rand.Int"
	if !pass.ImportObjectFact(fn, &second) {
		t.Fatal("second import found no fact")
	}
	if second != want {
		t.Errorf("second import = %+v after writing to the first, want %+v", second, want)
	}
	if exported != want {
		t.Errorf("stored fact = %+v after writing to an import, want %+v", exported, want)
	}
}
