package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"ecocapsule/internal/analysis"
)

// TestClosureCaptureRangeBodyWrite pins where a range body's captured
// writes are checked: in the body's own blocks, where the loop released
// the lock, never at the range header, where the lock taken before the
// loop is still held.
func TestClosureCaptureRangeBodyWrite(t *testing.T) {
	dir := t.TempDir()
	src := `package rangebody

import "sync"

func sum(mu *sync.Mutex, xs []int) int {
	var total int
	go func() {
		mu.Lock()
		for _, x := range xs {
			mu.Unlock()
			total += x
			mu.Lock()
		}
		mu.Unlock()
	}()
	return total
}
`
	if err := os.WriteFile(filepath.Join(dir, "rangebody.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader().CheckFixture("rangebody", dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.ClosureCapture})
	if len(diags) != 1 || diags[0].Pos.Line != 11 {
		t.Fatalf("want one closurecapture finding at line 11 (total += x), got:\n%s", formatDiags(diags))
	}
}
