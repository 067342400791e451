package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ecocapsule/internal/analysis"
)

// lockCopySrc holds the lock-copy cases locksafety used to report. Each
// line marked `// copy` copies a lock by value; every other line must stay
// quiet.
const lockCopySrc = `package lockcopy

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func byValue(g guarded) int { return g.n } // copy

func byPointer(g *guarded) int { return g.n }

func mutexParam(mu sync.Mutex) {} // copy

func rwMutexParam(mu sync.RWMutex) {} // copy

func (g guarded) valueRecv() int { return g.n } // copy

func (g *guarded) ptrRecv() int { return g.n }

func rangeCopy(gs []guarded) int {
	total := 0
	for _, g := range gs { // copy
		total += g.n
	}
	for i := range gs {
		total += gs[i].n
	}
	return total
}

func assignCopy(p *guarded) int {
	q := *p // copy
	r := p
	fresh := guarded{}
	return q.n + r.n + fresh.n
}
`

// TestGoVetOwnsLockCopies pins where the lock-copy property is checked:
// go vet's copylocks pass, which verify.sh runs as a hard gate, reports
// each copy exactly once, and ecolint's locksafety, which checks only
// lock leaks, reports none of them.
func TestGoVetOwnsLockCopies(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module lockcopy\n\ngo 1.22\n",
		"lockcopy.go": lockCopySrc,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[int]int)
	for i, line := range strings.Split(lockCopySrc, "\n") {
		if strings.HasSuffix(line, "// copy") {
			want[i+1] = 1
		}
	}
	if len(want) != 6 {
		t.Fatalf("fixture marks %d copy lines, want 6", len(want))
	}

	cmd := exec.Command(goTool, "vet", "-json", "-copylocks", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
	// -json prints one object per package, each after a "# pkg" line:
	// package -> analyzer -> diagnostics.
	var js []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("#")) {
			js = append(js, line...)
		}
	}
	got := make(map[int]int)
	dec := json.NewDecoder(bytes.NewReader(js))
	for dec.More() {
		var report map[string]map[string][]struct{ Posn, Message string }
		if err := dec.Decode(&report); err != nil {
			t.Fatalf("decoding go vet -json output: %v\n%s", err, out)
		}
		for _, byAnalyzer := range report {
			for name, diags := range byAnalyzer {
				for _, d := range diags {
					if name != "copylocks" {
						t.Errorf("unexpected %s diagnostic: %s: %s", name, d.Posn, d.Message)
						continue
					}
					// Posn is file:line:col.
					parts := strings.Split(d.Posn, ":")
					line, err := strconv.Atoi(parts[len(parts)-2])
					if err != nil {
						t.Fatalf("bad position %q", d.Posn)
					}
					got[line]++
				}
			}
		}
	}
	for line, n := range want {
		if got[line] != n {
			t.Errorf("line %d: go vet reported %d copylocks diagnostics, want %d", line, got[line], n)
		}
	}
	for line, n := range got {
		if want[line] == 0 {
			t.Errorf("line %d: go vet reported %d unexpected copylocks diagnostics", line, n)
		}
	}

	pkg, err := analysis.NewLoader().CheckFixture("lockcopy", dir)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	if diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.LockSafety}); len(diags) > 0 {
		t.Errorf("locksafety reports lock copies, which are go vet's:\n%s", diagList(diags))
	}
}
