// Package analysis is a small, stdlib-only static-analysis framework for
// the EcoCapsule repository, plus a set of domain-aware analyzers tuned to
// the bug classes that silently corrupt structural-health-monitoring data:
// unit mix-ups in physics math, lock misuse in long-lived servers,
// discarded wire-format errors, and exact float comparison.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// enumerated with `go list -deps -json`, parsed with go/parser, and
// type-checked with go/types using an importer backed by the same listing.
// Everything works offline with only the Go toolchain installed.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
	Standard     bool
	DepOnly      bool
	Error        *struct{ Err string }
}

// listedFields is the -json field projection shared by every go list
// invocation the drivers make.
const listedFields = "Dir,ImportPath,Name,GoFiles,TestGoFiles,XTestGoFiles," +
	"Imports,TestImports,XTestImports,Standard,DepOnly,Error"

// goListRaw runs `go list -e -deps -json` for the patterns in dir and
// decodes every listed package. CGO is disabled so that every listed
// package (including net, os/user, ...) is buildable as pure Go and can
// be type-checked from source. It touches no shared state and is safe
// to call from any goroutine.
func goListRaw(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json=" + listedFields}, patterns...)
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
		cp := p
		listed = append(listed, &cp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	return listed, nil
}

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path     string
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
	Standard bool
}
