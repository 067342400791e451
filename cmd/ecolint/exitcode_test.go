package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildEcolint compiles the command once into a temp dir and returns the
// binary path.
func buildEcolint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ecolint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ecolint: %v\n%s", err, out)
	}
	return bin
}

// runIn executes the binary in dir and returns its exit code and output.
func runIn(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running ecolint: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
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

// TestExitCodes pins the exit-code contract: 0 clean, 1 findings, 2
// usage, 3 driver/load error. CI gates key off the distinction — a tree
// that fails to load must not be mistaken for a tree with zero findings
// or for one with some.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and spawns go list")
	}
	bin := buildEcolint(t)

	clean := writeTree(t, map[string]string{
		"go.mod":  "module exitclean\n\ngo 1.21\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	if code, out := runIn(t, bin, clean, "./..."); code != exitClean {
		t.Errorf("clean tree: exit %d, want %d\n%s", code, exitClean, out)
	}

	dirty := writeTree(t, map[string]string{
		"go.mod":               "module exitdirty\n\ngo 1.21\n",
		"geometry/geometry.go": "package geometry\n\nfunc Eq(a, b float64) bool { return a == b }\n",
	})
	if code, out := runIn(t, bin, dirty, "./..."); code != exitFindings {
		t.Errorf("tree with findings: exit %d, want %d\n%s", code, exitFindings, out)
	} else if !strings.Contains(out, "floatcmp") {
		t.Errorf("finding output missing floatcmp:\n%s", out)
	}

	// Exact float equality in a test is the assertion, not a bug: a tree
	// whose only float == sits in geometry_test.go is clean.
	testsOnly := writeTree(t, map[string]string{
		"go.mod":                    "module exittests\n\ngo 1.21\n",
		"geometry/geometry.go":      "package geometry\n\nfunc Half(a float64) float64 { return a / 2 }\n",
		"geometry/geometry_test.go": "package geometry\n\nimport \"testing\"\n\nfunc TestHalf(t *testing.T) {\n\tif Half(3) != 1.5 {\n\t\tt.Fatal(\"half\")\n\t}\n}\n",
	})
	if code, out := runIn(t, bin, testsOnly, "-include-tests", "./..."); code != exitClean {
		t.Errorf("float == in a test file only: exit %d, want %d\n%s", code, exitClean, out)
	}

	// A bare unit multiplier in an annotated slot is a dimcheck finding.
	units := writeTree(t, map[string]string{
		"go.mod":  "module exitunits\n\ngo 1.21\n",
		"tick.go": "package tick\n\n// Tick is one scope tick.\nconst Tick = 1e-3 //ecolint:unit s\n",
	})
	if code, out := runIn(t, bin, units, "./..."); code != exitFindings {
		t.Errorf("bare multiplier in an s slot: exit %d, want %d\n%s", code, exitFindings, out)
	} else if !strings.Contains(out, "dimcheck") || !strings.Contains(out, "units.MS") {
		t.Errorf("finding output missing the dimcheck units.MS suggestion:\n%s", out)
	}

	if code, out := runIn(t, bin, clean, "-only", "nosuchanalyzer", "./..."); code != exitUsage {
		t.Errorf("unknown analyzer: exit %d, want %d\n%s", code, exitUsage, out)
	}

	broken := writeTree(t, map[string]string{
		"go.mod":  "module exitbroken\n\ngo 1.21\n",
		"bad.go":  "package bad\n\nfunc Oops() int { return undefinedIdent }\n",
		"main.go": "package bad\n",
	})
	if code, out := runIn(t, bin, broken, "./..."); code != exitDriver {
		t.Errorf("type-broken tree: exit %d, want %d\n%s", code, exitDriver, out)
	}

	nopkg := writeTree(t, map[string]string{
		"go.mod": "module exitempty\n\ngo 1.21\n",
	})
	if code, out := runIn(t, bin, nopkg, "./..."); code != exitDriver {
		t.Errorf("no packages matched: exit %d, want %d\n%s", code, exitDriver, out)
	}
}
