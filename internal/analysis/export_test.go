package analysis

// The golden-file harness (golden_test.go) loads fixture packages from
// plain directories and runs analyzers over them in one pass, without the
// production runner's go list scheduling. Those test-only entry points
// live here.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages from source. It implements
// types.Importer so that packages under analysis can resolve their imports
// from the same source tree; unknown import paths are resolved lazily with
// an extra `go list` call (used by the golden-test harness for fixture
// packages that import stdlib).
type Loader struct {
	Fset    *token.FileSet
	meta    map[string]*listedPackage // everything `go list` has told us about
	checked map[string]*Package       // fully type-checked packages
	sizes   types.Sizes
	// checking guards against import cycles while recursing.
	checking map[string]bool
}

// NewLoader returns an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	return &Loader{
		Fset:     token.NewFileSet(),
		meta:     make(map[string]*listedPackage),
		checked:  make(map[string]*Package),
		checking: make(map[string]bool),
		sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
}

// goList lists the patterns and merges the metadata of every listed
// package into the loader, returning the loader-owned entries.
func (l *Loader) goList(dir string, patterns ...string) ([]*listedPackage, error) {
	raw, err := goListRaw(dir, patterns...)
	if err != nil {
		return nil, err
	}
	listed := make([]*listedPackage, 0, len(raw))
	for _, p := range raw {
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = p
		}
		listed = append(listed, l.meta[p.ImportPath])
	}
	return listed, nil
}

// Import implements types.Importer. It serves already-checked packages from
// the cache and type-checks listed-but-unchecked ones on demand; paths the
// loader has never heard of trigger a lazy `go list` (stdlib packages pulled
// in by test fixtures land here).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.checked[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := l.meta[path]; !ok {
		if _, err := l.goList("", path); err != nil {
			return nil, err
		}
	}
	pkg, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// check parses and type-checks the listed package at path (and, through the
// importer, everything it depends on).
func (l *Loader) check(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	meta, ok := l.meta[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %q was never listed", path)
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: l,
		Sizes:    l.sizes,
		Error:    func(error) {}, // keep going; the first error is returned below
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && !meta.Standard {
		// Standard-library packages may use compiler intrinsics that do not
		// type-check perfectly from source; their declarations (which is all
		// importers need) still do. Errors in the packages under analysis
		// are fatal.
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:     path,
		Dir:      meta.Dir,
		Fset:     l.Fset,
		Files:    files,
		Types:    tpkg,
		Info:     info,
		Standard: meta.Standard,
	}
	l.checked[path] = pkg
	return pkg, nil
}

// CheckFixture parses every .go file in dir as a single package, registers
// it under importPath and type-checks it with the loader as importer. It is
// the entry point used by the golden-file test harness; fixture packages may
// import each other (register dependencies first) and the standard library.
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
	l.meta[importPath] = &listedPackage{Dir: dir, ImportPath: importPath, GoFiles: goFiles}
	return l.check(importPath)
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
