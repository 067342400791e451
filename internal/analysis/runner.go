package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ecocapsule/internal/conc"
)

// Options configures one driver run.
type Options struct {
	// Dir is the working directory for `go list`; "" means the current
	// directory.
	Dir string
	// Analyzers is the suite to run; nil means All().
	Analyzers []*Analyzer
	// IncludeTests folds each target package's _test.go files into the
	// analysis: in-package test files are merged into the package
	// (mirroring how `go test` compiles them) and external _test
	// packages are checked as their own unit.
	IncludeTests bool
}

// Stats reports what one run did.
type Stats struct {
	// Targets is the number of requested (non-dependency) packages.
	Targets int
}

// Run lists the patterns, analyzes every target package with the
// analyzers — in dependency order, each dependency level fanned out on
// the conc pool — and returns the surviving diagnostics in a
// deterministic total order. It is the engine behind cmd/ecolint and
// verify.sh.
func Run(opts Options, patterns ...string) ([]Diagnostic, *Stats, error) {
	if opts.Analyzers == nil {
		opts.Analyzers = All()
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	r := &runner{
		opts:   opts,
		fset:   token.NewFileSet(),
		meta:   make(map[string]*listedPackage),
		vendor: make(map[string]string),
		types:  make(map[string]*types.Package),
		parsed: make(map[string][]*ast.File),
		diags:  make(map[string][]Diagnostic),
		facts:  NewFacts(),
	}
	diags, err := r.run(patterns)
	if err != nil {
		return nil, nil, err
	}
	return diags, &Stats{Targets: len(r.targets)}, nil
}

type runner struct {
	opts  Options
	fset  *token.FileSet
	facts *Facts

	meta    map[string]*listedPackage
	targets []string          // import paths of requested packages, listing order
	vendor  map[string]string // source import string -> vendored import path

	mu     sync.RWMutex
	types  map[string]*types.Package // completed base units
	parsed map[string][]*ast.File    // base-unit ASTs, for test-unit reuse
	diags  map[string][]Diagnostic   // diagnostics per target package
}

// run drives the three phases: list, check+analyze by dependency
// level, merge.
func (r *runner) run(patterns []string) ([]Diagnostic, error) {
	if err := r.list(patterns); err != nil {
		return nil, err
	}
	for _, path := range r.targets {
		if p := r.meta[path]; p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", path, p.Error.Err)
		}
	}
	// Module packages outside the patterns that the targets depend on
	// are analyzed for their facts only: a partial pattern such as
	// ./internal/fleet still needs its dependencies' facts.
	useFacts := false
	for _, a := range r.opts.Analyzers {
		useFacts = useFacts || a.UsesFacts
	}
	needFacts := make(map[string]bool)
	for _, p := range r.meta {
		if useFacts && !p.Standard && !isTarget(r.targets, p.ImportPath) && r.moduleDepOfTargets(p.ImportPath) {
			needFacts[p.ImportPath] = true
		}
	}
	if err := r.checkAndAnalyze(needFacts); err != nil {
		return nil, err
	}

	var out []Diagnostic
	for _, path := range r.targets {
		out = append(out, r.diags[path]...)
	}
	sortDiagnostics(out)
	return out, nil
}

// list runs go list over the patterns, then closes the metadata over
// test imports (go list -deps does not follow them) so that every
// package the run can possibly type-check is known up front.
func (r *runner) list(patterns []string) error {
	listed, err := goListRaw(r.opts.Dir, patterns...)
	if err != nil {
		return err
	}
	for _, p := range listed {
		if _, ok := r.meta[p.ImportPath]; !ok {
			r.meta[p.ImportPath] = p
		}
		if !p.DepOnly && !p.Standard {
			if !isTarget(r.targets, p.ImportPath) {
				r.targets = append(r.targets, p.ImportPath)
			}
		}
	}
	if len(r.targets) == 0 {
		return fmt.Errorf("analysis: patterns %v matched no packages", patterns)
	}
	if r.opts.IncludeTests {
		for {
			var missing []string
			seen := make(map[string]bool)
			for _, path := range r.targets {
				p := r.meta[path]
				for _, imp := range append(append([]string(nil), p.TestImports...), p.XTestImports...) {
					imp = r.resolveImport(imp)
					if imp == "C" || imp == "unsafe" {
						continue
					}
					if _, ok := r.meta[imp]; !ok && !seen[imp] {
						seen[imp] = true
						missing = append(missing, imp)
					}
				}
			}
			if len(missing) == 0 {
				break
			}
			sort.Strings(missing)
			extra, err := goListRaw(r.opts.Dir, missing...)
			if err != nil {
				return err
			}
			for _, p := range extra {
				if _, ok := r.meta[p.ImportPath]; !ok {
					r.meta[p.ImportPath] = p
				}
			}
			// Anything still missing next iteration is a real error; the
			// loop terminates because meta only grows.
		}
	}
	// Map vendored stdlib dependencies (ImportPath "vendor/golang.org/x/...")
	// back to the import strings that appear in source.
	for path := range r.meta {
		if trimmed, ok := strings.CutPrefix(path, "vendor/"); ok {
			r.vendor[trimmed] = path
		}
	}
	return nil
}

func isTarget(targets []string, path string) bool {
	for _, t := range targets {
		if t == path {
			return true
		}
	}
	return false
}

// resolveImport maps a source import string to the listed import path
// (identity except for vendored stdlib).
func (r *runner) resolveImport(imp string) string {
	if _, ok := r.meta[imp]; ok {
		return imp
	}
	if v, ok := r.vendor[imp]; ok {
		return v
	}
	return imp
}

// moduleDepOfTargets reports whether path is reachable from any target
// through regular or (when tests are included) test imports.
func (r *runner) moduleDepOfTargets(path string) bool {
	seen := make(map[string]bool)
	var visit func(string) bool
	visit = func(at string) bool {
		if at == path {
			return true
		}
		if seen[at] {
			return false
		}
		seen[at] = true
		p := r.meta[at]
		if p == nil || p.Standard {
			return false
		}
		for _, imp := range r.importsOf(p, r.opts.IncludeTests && isTarget(r.targets, at)) {
			if visit(imp) {
				return true
			}
		}
		return false
	}
	for _, t := range r.targets {
		if visit(t) {
			return true
		}
	}
	return false
}

// importsOf returns the resolved dependency paths of p, optionally
// including its test imports, with "C" and "unsafe" dropped.
func (r *runner) importsOf(p *listedPackage, withTests bool) []string {
	var raw []string
	raw = append(raw, p.Imports...)
	if withTests {
		raw = append(raw, p.TestImports...)
		raw = append(raw, p.XTestImports...)
	}
	seen := make(map[string]bool)
	var out []string
	for _, imp := range raw {
		imp = r.resolveImport(imp)
		if imp == "C" || imp == "unsafe" || imp == p.ImportPath || seen[imp] {
			continue
		}
		seen[imp] = true
		out = append(out, imp)
	}
	sort.Strings(out)
	return out
}

// withTests reports whether p's analysis unit includes its test files.
func (r *runner) withTests(p *listedPackage) bool {
	return r.opts.IncludeTests && isTarget(r.targets, p.ImportPath) &&
		len(p.TestGoFiles)+len(p.XTestGoFiles) > 0
}

// unit is one node of the schedule: a package to type-check (base) or
// a package's test variants to check and analyze (test).
type unit struct {
	p    *listedPackage
	test bool

	// base-unit analysis placement, decided at graph-build time (a test
	// unit always runs the full suite):
	analyzeFull  bool // run the full suite (reporting) in this unit
	analyzeFacts bool // run fact-producing analyzers quietly in this unit

	deps  []*unit
	level int // 1 + the deepest level among deps; 0 until computed
}

// checkAndAnalyze builds the unit graph for every target, its test
// variants and the facts-only dependencies, then runs it level by
// level: a unit's dependencies all sit on earlier levels, so the units
// of one level are independent and fan out on the conc pool.
func (r *runner) checkAndAnalyze(needFacts map[string]bool) error {
	// Close the base-unit set over imports.
	needCheck := make(map[string]bool)
	var addCheck func(path string)
	addCheck = func(path string) {
		if needCheck[path] {
			return
		}
		p := r.meta[path]
		if p == nil {
			return
		}
		needCheck[path] = true
		for _, imp := range r.importsOf(p, false) {
			addCheck(imp)
		}
	}
	for _, path := range r.targets {
		addCheck(path)
		if r.withTests(r.meta[path]) {
			for _, imp := range r.importsOf(r.meta[path], true) {
				addCheck(imp)
			}
		}
	}
	for path := range needFacts {
		addCheck(path)
	}

	base := make(map[string]*unit, len(needCheck))
	var units []*unit
	paths := make([]string, 0, len(needCheck))
	for path := range needCheck {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		u := &unit{p: r.meta[path]}
		base[path] = u
		units = append(units, u)
	}
	// Analysis placement and edges.
	for _, path := range paths {
		p := r.meta[path]
		u := base[path]
		for _, imp := range r.importsOf(p, false) {
			if dep, ok := base[imp]; ok {
				u.deps = append(u.deps, dep)
			}
		}
		switch {
		case r.withTests(p):
			// Diagnostics come from the test variants; the base unit
			// still exports facts early so dependents need not wait for
			// the (heavier) test unit.
			u.analyzeFacts = true
			tu := &unit{p: p, test: true, deps: []*unit{u}}
			for _, imp := range r.importsOf(p, true) {
				if dep, ok := base[imp]; ok && imp != path {
					tu.deps = append(tu.deps, dep)
				}
			}
			units = append(units, tu)
		case isTarget(r.targets, path):
			u.analyzeFull = true
		case needFacts[path]:
			u.analyzeFacts = true
		}
	}

	var levels [][]*unit
	for _, u := range units {
		l := u.depth()
		for len(levels) < l {
			levels = append(levels, nil)
		}
		levels[l-1] = append(levels[l-1], u)
	}
	for _, level := range levels {
		if err := r.runLevel(level); err != nil {
			return err
		}
	}
	return nil
}

// depth returns u's level, computing it (and its dependencies' levels)
// on first use. The unit graph is acyclic, so the recursion ends.
func (u *unit) depth() int {
	if u.level == 0 {
		for _, d := range u.deps {
			u.level = max(u.level, d.depth())
		}
		u.level++
	}
	return u.level
}

// runLevel processes one level's units on the conc pool and returns the
// first error in unit order.
func (r *runner) runLevel(units []*unit) error {
	errs := make([]error, len(units))
	conc.For(len(units), func(i int) {
		errs[i] = r.process(units[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// process runs one unit: parse, type-check, optionally analyze.
func (r *runner) process(u *unit) error {
	if u.test {
		return r.processTestUnit(u)
	}
	return r.processBaseUnit(u)
}

// newInfo returns a fresh types.Info with every map the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importer resolves import strings against completed base units. The
// level schedule guarantees every dependency finished first, so a miss is a
// driver bug, not a race.
func (r *runner) importer() types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		path = r.resolveImport(path)
		r.mu.RLock()
		tpkg, ok := r.types[path]
		r.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("analysis: import %q not yet checked (scheduler bug?)", path)
		}
		return tpkg, nil
	})
}

// parseFiles parses the named files of p into the shared (thread-safe)
// FileSet.
func (r *runner) parseFiles(p *listedPackage, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(r.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path, tolerating errors only for
// stdlib packages (compiler intrinsics don't all type-check from
// source; their declarations — all importers need — still do). Stdlib
// packages are never analyzed, only imported, so their function bodies
// are skipped: an importer sees declarations alone.
func (r *runner) check(path string, p *listedPackage, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{
		Importer:         imp,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error:            func(error) {},
		IgnoreFuncBodies: p.Standard,
	}
	tpkg, err := conf.Check(path, r.fset, files, info)
	if err != nil && !p.Standard {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

func (r *runner) processBaseUnit(u *unit) error {
	p := u.p
	files, err := r.parseFiles(p, p.GoFiles)
	if err != nil {
		return err
	}
	tpkg, info, err := r.check(p.ImportPath, p, files, r.importer())
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.types[p.ImportPath] = tpkg
	r.parsed[p.ImportPath] = files
	r.mu.Unlock()

	if !u.analyzeFull && !u.analyzeFacts {
		return nil
	}
	pkg := &Package{Path: p.ImportPath, Dir: p.Dir, Fset: r.fset, Files: files, Types: tpkg, Info: info, Standard: p.Standard}
	diags := analyzeUnit(pkg, r.opts.Analyzers, r.facts, !u.analyzeFull)
	if u.analyzeFull {
		r.recordDiags(p.ImportPath, diags)
	}
	return nil
}

func (r *runner) processTestUnit(u *unit) error {
	p := u.p
	r.mu.RLock()
	baseFiles := r.parsed[p.ImportPath]
	r.mu.RUnlock()

	// In-package test files merge into the package, mirroring `go test`,
	// and the external test package imports that merged package, so it
	// sees what an export_test.go file exports.
	xImp := r.importer()
	if len(p.TestGoFiles) > 0 {
		testFiles, err := r.parseFiles(p, p.TestGoFiles)
		if err != nil {
			return err
		}
		files := append(append([]*ast.File(nil), baseFiles...), testFiles...)
		tpkg, info, err := r.check(p.ImportPath, p, files, r.importer())
		if err != nil {
			return err
		}
		base := xImp
		xImp = importerFunc(func(path string) (*types.Package, error) {
			if path == p.ImportPath {
				return tpkg, nil
			}
			return base.Import(path)
		})
		pkg := &Package{Path: p.ImportPath, Dir: p.Dir, Fset: r.fset, Files: files, Types: tpkg, Info: info}
		r.recordDiags(p.ImportPath, analyzeUnit(pkg, r.opts.Analyzers, r.facts, false))
	} else {
		// No in-package test files: the base unit's files are the
		// package's full source; analyze them here (the base unit only
		// exported facts).
		r.mu.RLock()
		tpkg := r.types[p.ImportPath]
		r.mu.RUnlock()
		info := newInfo()
		conf := types.Config{Importer: r.importer(), Sizes: types.SizesFor("gc", runtime.GOARCH), Error: func(error) {}}
		if _, err := conf.Check(p.ImportPath, r.fset, baseFiles, info); err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		pkg := &Package{Path: p.ImportPath, Dir: p.Dir, Fset: r.fset, Files: baseFiles, Types: tpkg, Info: info}
		r.recordDiags(p.ImportPath, analyzeUnit(pkg, r.opts.Analyzers, r.facts, false))
	}

	// External _test package (package foo_test).
	if len(p.XTestGoFiles) > 0 {
		xFiles, err := r.parseFiles(p, p.XTestGoFiles)
		if err != nil {
			return err
		}
		xPath := p.ImportPath + "_test"
		tpkg, info, err := r.check(xPath, p, xFiles, xImp)
		if err != nil {
			return err
		}
		pkg := &Package{Path: xPath, Dir: p.Dir, Fset: r.fset, Files: xFiles, Types: tpkg, Info: info}
		r.recordDiags(p.ImportPath, analyzeUnit(pkg, r.opts.Analyzers, r.facts, false))
	}
	return nil
}

func (r *runner) recordDiags(path string, diags []Diagnostic) {
	r.mu.Lock()
	r.diags[path] = append(r.diags[path], diags...)
	r.mu.Unlock()
}

// FormatText renders diagnostics in the classic `file:line: analyzer:
// message` form, one per line.
func FormatText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}
