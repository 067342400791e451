// Package analysis is a small, stdlib-only static-analysis framework for
// the EcoCapsule repository, plus a set of domain-aware analyzers tuned to
// the bug classes that silently corrupt structural-health-monitoring data:
// unit mix-ups in physics math, lock misuse in long-lived servers,
// discarded wire-format errors, and exact float comparison.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// enumerated with `go list -deps -export -json`; the module's own
// packages are parsed with go/parser and type-checked with go/types, and
// every package outside the module (the standard library) is imported
// from the compiler export data that the listing points at. Everything
// works offline with only the Go toolchain installed.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string // in-package _test.go files (package foo)
	XTestGoFiles []string // external _test.go files (package foo_test)
	Imports      []string
	TestImports  []string
	XTestImports []string
	DepOnly      bool
	Module       *struct{ Main bool }
	Export       string // compiler export data file
	Error        *struct{ Err string }
}

// local reports whether p belongs to the main module, so that it is
// parsed and type-checked from source; every other package is imported
// from its export data.
func (p *listedPackage) local() bool { return p.Module != nil && p.Module.Main }

// listedFields is the -json field projection shared by every go list
// invocation the drivers make.
const listedFields = "Dir,ImportPath,Name,GoFiles,TestGoFiles,XTestGoFiles," +
	"Imports,TestImports,XTestImports,DepOnly,Module,Export,Error"

// goList runs `go list -e -deps -export -json` for the patterns in dir,
// adds every listed package that meta lacks to meta and returns the
// listed packages as meta holds them. -export builds (or finds in the
// build cache) each package's export data. CGO is disabled so that net,
// os/user and the rest build as pure Go without a C toolchain.
func goList(meta map[string]*listedPackage, dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=" + listedFields}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("analysis: starting go list: %w", err)
	}
	dec := json.NewDecoder(out)
	var listed []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.ImportPath == "" {
			continue
		}
		if meta[p.ImportPath] == nil {
			meta[p.ImportPath] = &p
		}
		listed = append(listed, meta[p.ImportPath])
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	return listed, nil
}

// exportImporter imports packages from the export data files that meta
// lists, reading meta at each import. One gc importer serves every
// import, so each package has one *types.Package per importer; a mutex
// serialises it, since the level schedule imports from many goroutines.
func exportImporter(fset *token.FileSet, meta map[string]*listedPackage) types.Importer {
	var mu sync.Mutex
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := meta[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		mu.Lock()
		defer mu.Unlock()
		return imp.Import(path)
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parsedHook, when set, observes the import path of every package
// parseFiles reads; tests use it to pin what the drivers parse.
var parsedHook func(path string)

// parseFiles parses the named files of p into fset (which is safe for
// concurrent use).
func parseFiles(fset *token.FileSet, p *listedPackage, names []string) ([]*ast.File, error) {
	if parsedHook != nil {
		parsedHook(p.ImportPath)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path. Only module packages are
// checked, so any type error is fatal.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}
