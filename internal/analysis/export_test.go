package analysis

// The golden-file harness (golden_test.go) loads fixture packages from
// plain directories and runs analyzers over them in one pass, without the
// production runner's go list scheduling. Those test-only entry points
// live here.

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
)

// RecordParsed makes every later parse record its package's import path
// and returns the recorded paths so far, sorted and deduplicated, through
// the returned function; stop ends the recording.
func RecordParsed() (parsed func() []string, stop func()) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	parsedHook = func(path string) {
		mu.Lock()
		seen[path] = true
		mu.Unlock()
	}
	parsed = func() []string {
		mu.Lock()
		defer mu.Unlock()
		paths := make([]string, 0, len(seen))
		for path := range seen {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		return paths
	}
	return parsed, func() { parsedHook = nil }
}

// Loader type-checks fixture packages from source. It implements
// types.Importer: fixtures resolve each other from the checked set and
// every other import (the standard library) from export data, listed
// lazily with an extra `go list` call.
type Loader struct {
	Fset    *token.FileSet
	meta    map[string]*listedPackage // everything `go list` has told us about
	checked map[string]*types.Package // fixtures checked so far
	exports types.Importer            // reads meta's export data
}

// NewLoader returns an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	l := &Loader{
		Fset:    token.NewFileSet(),
		meta:    make(map[string]*listedPackage),
		checked: make(map[string]*types.Package),
	}
	l.exports = exportImporter(l.Fset, l.meta)
	return l
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if tpkg, ok := l.checked[path]; ok {
		return tpkg, nil
	}
	if _, ok := l.meta[path]; !ok {
		if _, err := goList(l.meta, "", path); err != nil {
			return nil, err
		}
	}
	return l.exports.Import(path)
}

// CheckFixture parses every .go file in dir as a single package under
// importPath and type-checks it with the loader as importer. It is the
// entry point used by the golden-file test harness; fixture packages may
// import each other (check dependencies first) and the standard library.
func (l *Loader) CheckFixture(importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	files, err := parseFiles(l.Fset, &listedPackage{Dir: dir, ImportPath: importPath}, goFiles)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := check(l.Fset, importPath, files, l)
	if err != nil {
		return nil, err
	}
	l.checked[importPath] = tpkg
	return &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// RunAnalyzers applies every analyzer to every package in order —
// dependencies must precede dependents for cross-package facts to
// propagate — and returns the surviving diagnostics sorted by position.
// Findings matched by a well-formed ignore directive are dropped;
// ignore directives without a reason are reported as findings
// themselves so suppressions stay auditable.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := NewFacts()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyzeUnit(pkg, analyzers, facts, false)...)
	}
	sortDiagnostics(diags)
	return diags
}
