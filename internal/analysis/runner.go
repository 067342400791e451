package analysis

import (
	"crypto/sha256"
	"encoding/hex"
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
	"sync/atomic"
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
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS. 1
	// gives a fully sequential run (the reference the parallel run is
	// tested against).
	Parallelism int
}

// Stats reports what one run did.
type Stats struct {
	// Targets is the number of requested (non-dependency) packages.
	Targets int
	// CacheHits / CacheMisses count target packages served from /
	// missing the result cache. Without a cache every target is a miss.
	CacheHits   int
	CacheMisses int
	// UnitsChecked counts type-checked units (stdlib deps included);
	// a fully warm run checks zero.
	UnitsChecked int
}

// Run lists the patterns, analyzes every target package with the
// analyzers — in dependency order, in parallel, consulting the result
// cache — and returns the surviving diagnostics in a deterministic
// total order. It is the engine behind cmd/ecolint and verify.sh.
func Run(opts Options, patterns ...string) ([]Diagnostic, *Stats, error) {
	if opts.Analyzers == nil {
		opts.Analyzers = All()
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	r := &runner{
		opts:   opts,
		fset:   token.NewFileSet(),
		meta:   make(map[string]*listedPackage),
		vendor: make(map[string]string),
		hashes: make(map[string]string),
		types:  make(map[string]*types.Package),
		parsed: make(map[string][]*ast.File),
		diags:  make(map[string][]Diagnostic),
		facts:  NewFacts(),
		stats:  &Stats{},
	}
	if opts.CacheDir != "" {
		cache, err := newResultCache(opts.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		r.cache = cache
	}
	diags, err := r.run(patterns)
	if err != nil {
		return nil, nil, err
	}
	return diags, r.stats, nil
}

type runner struct {
	opts  Options
	fset  *token.FileSet
	cache *resultCache
	facts *Facts
	stats *Stats

	meta    map[string]*listedPackage
	targets []string          // import paths of requested packages, listing order
	vendor  map[string]string // source import string -> vendored import path
	hashes  map[string]string // memoized pkgHash results (path or path+"+test")

	mu     sync.RWMutex
	types  map[string]*types.Package // completed base units
	parsed map[string][]*ast.File    // base-unit ASTs, for test-unit reuse
	diags  map[string][]Diagnostic   // fresh diagnostics per module package

	firstErr atomic.Pointer[runError]
}

type runError struct{ err error }

func (r *runner) fail(err error) {
	r.firstErr.CompareAndSwap(nil, &runError{err})
}

func (r *runner) failed() bool { return r.firstErr.Load() != nil }

// run drives the five phases: list, hash, cache probe, parallel
// check+analyze, merge.
func (r *runner) run(patterns []string) ([]Diagnostic, error) {
	if err := r.list(patterns); err != nil {
		return nil, err
	}
	useFacts := false
	for _, a := range r.opts.Analyzers {
		if a.UsesFacts {
			useFacts = true
		}
	}

	// Cache probe: decide which module packages still need analysis.
	needFull := make(map[string]bool)  // full analysis (targets)
	needFacts := make(map[string]bool) // facts-only (module deps)
	hits := make(map[string]*cacheEntry)
	for _, path := range r.targets {
		p := r.meta[path]
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", path, p.Error.Err)
		}
		if e := r.probe(p, false); e != nil {
			hits[path] = e
			r.stats.CacheHits++
		} else {
			needFull[path] = true
			r.stats.CacheMisses++
		}
	}
	if useFacts {
		for _, p := range r.meta {
			if p.Standard || isTarget(r.targets, p.ImportPath) {
				continue
			}
			if !r.moduleDepOfTargets(p.ImportPath) {
				continue
			}
			if e := r.probe(p, true); e != nil {
				hits[p.ImportPath] = e
			} else {
				needFacts[p.ImportPath] = true
			}
		}
	}
	// Restore cached facts before any analysis runs.
	for path, e := range hits {
		r.facts.AddSerialized(path, e.Facts)
	}

	if len(needFull)+len(needFacts) > 0 {
		if err := r.checkAndAnalyze(needFull, needFacts); err != nil {
			return nil, err
		}
	}

	// Merge: cached + fresh diagnostics for targets only.
	var out []Diagnostic
	for _, path := range r.targets {
		if e, ok := hits[path]; ok && !e.FactsOnly {
			out = append(out, fromCachedDiags(e.Diags)...)
			continue
		}
		r.mu.RLock()
		out = append(out, r.diags[path]...)
		r.mu.RUnlock()
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
	r.stats.Targets = len(r.targets)
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

// probe checks the result cache for a usable entry for p. factsOK
// accepts facts-only entries (dependency packages).
func (r *runner) probe(p *listedPackage, factsOK bool) *cacheEntry {
	if r.cache == nil {
		return nil
	}
	key, err := r.pkgHash(p, r.withTests(p))
	if err != nil {
		return nil
	}
	e := r.cache.get(key, p.ImportPath)
	if e == nil {
		return nil
	}
	if e.FactsOnly && !factsOK {
		return nil
	}
	return e
}

// withTests reports whether p's analysis unit includes its test files.
func (r *runner) withTests(p *listedPackage) bool {
	return r.opts.IncludeTests && isTarget(r.targets, p.ImportPath) &&
		len(p.TestGoFiles)+len(p.XTestGoFiles) > 0
}

// pkgHash computes the content-addressed cache key of p: toolchain,
// analyzer fingerprint, file contents and all dependency hashes.
// Results are memoized; the module import graph is acyclic so the
// recursion terminates (test imports are only followed at the top
// level, which is what breaks the classic tests-import-a-helper-that-
// imports-us cycle).
func (r *runner) pkgHash(p *listedPackage, withTests bool) (string, error) {
	memoKey := p.ImportPath
	if withTests {
		memoKey += "+test"
	}
	if h, ok := r.hashes[memoKey]; ok {
		return h, nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "ecolint/%d\n%s\n%s\n", cacheSchema, toolchainFingerprint(), analyzersFingerprint(r.opts.Analyzers))
	fmt.Fprintf(h, "pkg %s tests=%v\n", p.ImportPath, withTests)
	files := append([]string(nil), p.GoFiles...)
	if withTests {
		files = append(files, p.TestGoFiles...)
		files = append(files, p.XTestGoFiles...)
	}
	for _, name := range files {
		fh, err := hashFile(filepath.Join(p.Dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %s\n", name, fh)
	}
	for _, imp := range r.importsOf(p, withTests) {
		dep := r.meta[imp]
		if dep == nil {
			return "", fmt.Errorf("analysis: dependency %q of %s was never listed", imp, p.ImportPath)
		}
		if dep.Standard {
			fmt.Fprintf(h, "dep std:%s\n", imp)
			continue
		}
		dh, err := r.pkgHash(dep, false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "dep %s %s\n", imp, dh)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	r.hashes[memoKey] = sum
	return sum, nil
}

// unit is one node of the parallel schedule: a package to type-check
// (base) or a package's test variants to check and analyze (test).
type unit struct {
	p    *listedPackage
	test bool

	// analysis placement, decided at graph-build time:
	analyzeFull  bool // run the full suite (reporting) in this unit
	analyzeFacts bool // run fact-producing analyzers quietly in this unit
	writeEntry   bool // persist the package's cache entry after this unit

	nDeps      atomic.Int32
	dependents []*unit
}

// checkAndAnalyze builds the unit graph for everything that needs
// type-checking and pumps it through a dependency-ordered worker pool.
func (r *runner) checkAndAnalyze(needFull, needFacts map[string]bool) error {
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
	for path := range needFull {
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
	// Analysis placement.
	testUnits := make(map[string]*unit)
	for _, path := range paths {
		p := r.meta[path]
		u := base[path]
		switch {
		case needFull[path] && r.withTests(p):
			// Diagnostics come from the test variants; the base unit
			// still exports facts early so dependents need not wait for
			// the (heavier) test unit.
			u.analyzeFacts = true
			tu := &unit{p: p, test: true, analyzeFull: true, writeEntry: true}
			testUnits[path] = tu
			units = append(units, tu)
		case needFull[path]:
			u.analyzeFull = true
			u.writeEntry = true
		case needFacts[path]:
			u.analyzeFacts = true
			u.writeEntry = true
		}
	}
	// Edges.
	link := func(from, to *unit) {
		to.dependents = append(to.dependents, from)
		from.nDeps.Add(1)
	}
	for _, path := range paths {
		u := base[path]
		for _, imp := range r.importsOf(u.p, false) {
			if dep, ok := base[imp]; ok {
				link(u, dep)
			}
		}
	}
	for path, tu := range testUnits {
		link(tu, base[path])
		for _, imp := range r.importsOf(tu.p, true) {
			if dep, ok := base[imp]; ok && imp != path {
				link(tu, dep)
			}
		}
	}

	// Dependency-ordered worker pool.
	ready := make(chan *unit, len(units))
	var pending atomic.Int32
	pending.Store(int32(len(units)))
	for _, u := range units {
		if u.nDeps.Load() == 0 {
			ready <- u
		}
	}
	if len(units) == 0 {
		return nil
	}
	var wg sync.WaitGroup
	workers := r.opts.Parallelism
	if workers > len(units) {
		workers = len(units)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range ready {
				if !r.failed() {
					if err := r.process(u); err != nil {
						r.fail(err)
					}
				}
				for _, d := range u.dependents {
					if d.nDeps.Add(-1) == 0 {
						ready <- d
					}
				}
				if pending.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	if e := r.firstErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// process runs one unit: parse, type-check, optionally analyze,
// optionally persist the package's cache entry.
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
// scheduler guarantees every dependency finished first, so a miss is a
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
// source; their declarations — all importers need — still do).
func (r *runner) check(path string, p *listedPackage, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{
		Importer: r.importer(),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(error) {},
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
	tpkg, info, err := r.check(p.ImportPath, p, files)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.types[p.ImportPath] = tpkg
	r.parsed[p.ImportPath] = files
	r.stats.UnitsChecked++
	r.mu.Unlock()

	if !u.analyzeFull && !u.analyzeFacts {
		return nil
	}
	pkg := &Package{Path: p.ImportPath, Dir: p.Dir, Fset: r.fset, Files: files, Types: tpkg, Info: info, Standard: p.Standard}
	diags := analyzeUnit(pkg, r.opts.Analyzers, r.facts, !u.analyzeFull)
	if u.analyzeFull {
		r.mu.Lock()
		r.diags[p.ImportPath] = append(r.diags[p.ImportPath], diags...)
		r.mu.Unlock()
	}
	if u.writeEntry {
		return r.persist(p, !u.analyzeFull)
	}
	return nil
}

func (r *runner) processTestUnit(u *unit) error {
	p := u.p
	r.mu.RLock()
	baseFiles := r.parsed[p.ImportPath]
	r.mu.RUnlock()

	// In-package test files merge into the package, mirroring `go test`.
	if len(p.TestGoFiles) > 0 {
		testFiles, err := r.parseFiles(p, p.TestGoFiles)
		if err != nil {
			return err
		}
		files := append(append([]*ast.File(nil), baseFiles...), testFiles...)
		tpkg, info, err := r.check(p.ImportPath, p, files)
		if err != nil {
			return err
		}
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
		tpkg, info, err := r.check(xPath, p, xFiles)
		if err != nil {
			return err
		}
		pkg := &Package{Path: xPath, Dir: p.Dir, Fset: r.fset, Files: xFiles, Types: tpkg, Info: info}
		r.recordDiags(p.ImportPath, analyzeUnit(pkg, r.opts.Analyzers, r.facts, false))
	}
	r.mu.Lock()
	r.stats.UnitsChecked++
	r.mu.Unlock()
	if u.writeEntry {
		return r.persist(p, false)
	}
	return nil
}

func (r *runner) recordDiags(path string, diags []Diagnostic) {
	r.mu.Lock()
	r.diags[path] = append(r.diags[path], diags...)
	r.mu.Unlock()
}

// persist writes the package's cache entry (diagnostics + exported
// facts) under its content hash.
func (r *runner) persist(p *listedPackage, factsOnly bool) error {
	if r.cache == nil {
		return nil
	}
	key, err := r.pkgHashLocked(p, r.withTests(p))
	if err != nil {
		return err
	}
	r.mu.RLock()
	diags := append([]Diagnostic(nil), r.diags[p.ImportPath]...)
	r.mu.RUnlock()
	sortDiagnostics(diags)
	e := &cacheEntry{
		Package:   p.ImportPath,
		FactsOnly: factsOnly,
		Diags:     toCachedDiags(diags),
		Facts:     r.facts.PackageFacts(p.ImportPath),
	}
	if err := r.cache.put(key, e); err != nil {
		return fmt.Errorf("analysis: writing cache entry for %s: %w", p.ImportPath, err)
	}
	return nil
}

// pkgHashLocked guards the hash memo for calls from worker goroutines.
var hashMu sync.Mutex

func (r *runner) pkgHashLocked(p *listedPackage, withTests bool) (string, error) {
	hashMu.Lock()
	defer hashMu.Unlock()
	return r.pkgHash(p, withTests)
}

// FormatText renders diagnostics in the classic `file:line: analyzer:
// message` form, one per line.
func FormatText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}
