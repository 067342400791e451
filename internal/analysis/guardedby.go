package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ecocapsule/internal/analysis/cfg"
)

// GuardedByDirective annotates a struct field with the sibling mutex
// that must be held around every access:
//
//	type Fleet struct {
//		mu sync.Mutex
//		//ecolint:guardedby mu
//		alive []bool
//	}
//
// The guardedby analyzer then runs a must-held lock-set dataflow over
// every function (defer-aware: `defer mu.Unlock()` holds to the end)
// and flags any read or write of an annotated field on a path where the
// named mutex is provably not held. RWMutex guards are direction-aware:
// reads are satisfied by RLock or Lock, writes demand Lock.
//
// Helper methods that are documented to run under the caller's lock opt
// out of in-body flagging in one of two ways: a name ending in "Locked"
// (the repository convention — rerouteLocked, coverageLocked, ...) or
// an explicit //ecolint:requiresheld directive. Their lock requirement
// is exported as a LockFact and enforced at every call site instead,
// across package boundaries.
const GuardedByDirective = "//ecolint:guardedby"

// GuardedByFact is the per-struct annotation table exported on the
// struct's type object so dependent packages can check accesses to
// exported guarded fields.
type GuardedByFact struct {
	// Fields maps annotated field name -> guard field name.
	Fields map[string]string `json:"fields"`
	// RWGuards marks guard fields that are sync.RWMutex (read accesses
	// may hold either half).
	RWGuards map[string]bool `json:"rwGuards,omitempty"`
}

// AFact marks GuardedByFact as a fact.
func (*GuardedByFact) AFact() {}

// GuardedBy enforces //ecolint:guardedby contracts. Races on routing
// and subscriber state don't corrupt a single SHM reading — they
// corrupt which stations the fleet trusts, which is how a monitoring
// system silently grades a damaged span FULL. The -race detector only
// sees schedules the tests happen to produce; this check covers every
// path the CFG can name.
var GuardedBy = &Analyzer{
	Name:      "guardedby",
	UsesFacts: true,
	Doc: "flags reads/writes of //ecolint:guardedby fields on paths where the named mutex " +
		"is not held (defer-aware, RWMutex read-vs-write aware, interprocedural via lock-set facts)",
	Run: runGuardedBy,
}

// guardRef describes one annotated field's contract.
type guardRef struct {
	guard string // sibling mutex field name
	rw    bool   // guard is a sync.RWMutex
}

// mutexKind classifies a type as sync.Mutex / sync.RWMutex (directly or
// behind one pointer).
func mutexKind(t types.Type) (isMutex, isRW bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return true, true
	}
	return false, false
}

// guardTable holds the annotation tables for one pass: local fields by
// object, plus a cache of imported per-type facts.
type guardTable struct {
	pass     *Pass
	local    map[*types.Var]guardRef
	imported map[*types.TypeName]*GuardedByFact // nil value = no fact
}

// directiveArgs extracts the arguments of directive from a comment
// group, reporting whether the directive is present.
func directiveArgs(cg *ast.CommentGroup, directive string) ([]string, bool) {
	if cg == nil {
		return nil, false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, directive) {
			rest := strings.TrimSpace(strings.TrimPrefix(text, directive))
			return strings.Fields(rest), true
		}
	}
	return nil, false
}

// collectGuards scans the package's struct declarations for guardedby
// annotations, validates them, fills the local table and exports one
// GuardedByFact per annotated type.
func collectGuards(pass *Pass) *guardTable {
	gt := &guardTable{
		pass:     pass,
		local:    make(map[*types.Var]guardRef),
		imported: make(map[*types.TypeName]*GuardedByFact),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				gt.collectStruct(pass, ts, st)
			}
		}
	}
	return gt
}

// collectStruct handles one struct declaration.
func (gt *guardTable) collectStruct(pass *Pass, ts *ast.TypeSpec, st *ast.StructType) {
	// First index the mutex fields so annotations can be validated.
	type mutexInfo struct{ rw bool }
	mutexes := make(map[string]mutexInfo)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if v, _ := pass.Info.Defs[name].(*types.Var); v != nil {
				if isMu, isRW := mutexKind(v.Type()); isMu {
					mutexes[name.Name] = mutexInfo{rw: isRW}
				}
			}
		}
	}
	fact := &GuardedByFact{Fields: make(map[string]string)}
	for _, field := range st.Fields.List {
		args, found := directiveArgs(field.Doc, GuardedByDirective)
		if !found {
			args, found = directiveArgs(field.Comment, GuardedByDirective)
		}
		if !found {
			continue
		}
		pos := field.Pos()
		if len(args) == 0 {
			pass.Reportf(pos, "guardedby directive names no mutex field (//ecolint:guardedby <mutexField>)")
			continue
		}
		guard := args[0]
		mi, ok := mutexes[guard]
		if !ok {
			pass.Reportf(pos, "guardedby directive names %q, which is not a sync.Mutex/RWMutex field of %s", guard, ts.Name.Name)
			continue
		}
		for _, name := range field.Names {
			if name.Name == guard {
				pass.Reportf(pos, "guardedby directive on the mutex field %q itself (annotate the data it protects)", guard)
				continue
			}
			if v, _ := pass.Info.Defs[name].(*types.Var); v != nil {
				gt.local[v] = guardRef{guard: guard, rw: mi.rw}
				fact.Fields[name.Name] = guard
				if mi.rw {
					if fact.RWGuards == nil {
						fact.RWGuards = make(map[string]bool)
					}
					fact.RWGuards[guard] = true
				}
			}
		}
	}
	if len(fact.Fields) == 0 {
		return
	}
	if tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
		pass.ExportObjectFact(tn, fact)
	}
}

// guardOf resolves the guard contract of a field selection, if any.
// base is the printed expression the guard key hangs off ("f" for
// f.alive -> guard key "f.mu").
func (gt *guardTable) guardOf(sel *ast.SelectorExpr) (ref guardRef, base string, ok bool) {
	selection, found := gt.pass.Info.Selections[sel]
	if !found || selection.Kind() != types.FieldVal {
		return guardRef{}, "", false
	}
	field, _ := selection.Obj().(*types.Var)
	if field == nil {
		return guardRef{}, "", false
	}
	if ref, ok := gt.local[field]; ok {
		return ref, types.ExprString(sel.X), true
	}
	if field.Pkg() == gt.pass.Pkg {
		return guardRef{}, "", false
	}
	// Cross-package access: consult the owning type's exported fact.
	t := selection.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return guardRef{}, "", false
	}
	tn := named.Obj()
	fact, cached := gt.imported[tn]
	if !cached {
		var f GuardedByFact
		if gt.pass.ImportObjectFact(tn, &f) {
			fact = &f
		}
		gt.imported[tn] = fact
	}
	if fact == nil {
		return guardRef{}, "", false
	}
	guard, annotated := fact.Fields[field.Name()]
	if !annotated {
		return guardRef{}, "", false
	}
	return guardRef{guard: guard, rw: fact.RWGuards[guard]}, types.ExprString(sel.X), true
}

// accessEvent is one read or write of a guarded field, in source order.
type accessEvent struct {
	pos   token.Pos
	sel   *ast.SelectorExpr
	ref   guardRef
	base  string
	write bool
}

// callEvent is one call whose callee carries a RequiresHeld contract.
type callEvent struct {
	pos      token.Pos
	base     string
	callee   *types.Func
	requires []string
}

func (ev *accessEvent) Pos() token.Pos { return ev.pos }
func (ev *callEvent) Pos() token.Pos   { return ev.pos }

// markWriteTargets records, for every assignment/inc-dec/address-of/
// delete inside n, which selector expression is the written-to base.
// f.best[h] = v marks f.best; *f.p = v marks f.p; &f.buf marks f.buf
// (escaping addresses are treated as writes).
func markWriteTargets(n ast.Node, writes map[ast.Expr]bool) {
	var markTarget func(e ast.Expr)
	markTarget = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			markTarget(e.X)
		case *ast.IndexExpr:
			markTarget(e.X)
		case *ast.StarExpr:
			markTarget(e.X)
		case *ast.SliceExpr:
			markTarget(e.X)
		case *ast.SelectorExpr:
			writes[e] = true
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markTarget(lhs)
			}
		case *ast.IncDecStmt:
			markTarget(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markTarget(x.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				markTarget(x.Args[0])
			}
		}
		return true
	})
}

// nodeGuardProbes collects, in position order, the replay probes of one
// CFG node: its guarded-field accesses and its calls into functions
// carrying a RequiresHeld contract, local or imported. Function literal
// bodies are skipped; each literal is analyzed as its own function.
func nodeGuardProbes(gt *guardTable, n ast.Node, resolver func(*types.Func) *LockFact) []probe {
	writes := make(map[ast.Expr]bool)
	markWriteTargets(n, writes)
	var probes []probe
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if ref, base, guarded := gt.guardOf(x); guarded {
				probes = append(probes, &accessEvent{pos: x.Sel.Pos(), sel: x, ref: ref, base: base, write: writes[x]})
			}
		case *ast.CallExpr:
			callee, base := callTarget(gt.pass, x)
			if callee == nil || base == "" {
				return true
			}
			if lf := resolver(callee); lf != nil && len(lf.RequiresHeld) > 0 {
				probes = append(probes, &callEvent{pos: x.Pos(), base: base, callee: callee, requires: lf.RequiresHeld})
			}
		}
		return true
	})
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].Pos() < probes[j].Pos() })
	return probes
}

// gbFunc carries one function's evolving lock-set summary.
type gbFunc struct {
	decl     *ast.FuncDecl
	obj      *types.Func
	recvName string
	// candidate functions ("Locked" suffix or requiresheld directive)
	// have their receiver-guard requirements inferred and enforced at
	// call sites rather than in the body.
	candidate bool
	explicit  []string // directive-named guards (empty = infer)
	badGuards []string // directive-named guards that don't exist

	requires map[string]bool // relative tokens
	acquires map[string]bool
	releases map[string]bool
	graph    *cfg.Graph
}

// fact renders the summary as an exportable LockFact, or nil when it
// says nothing.
func (fi *gbFunc) fact() *LockFact {
	if len(fi.requires) == 0 && len(fi.acquires) == 0 && len(fi.releases) == 0 {
		return nil
	}
	return &LockFact{
		Acquires:     sortedTokens(fi.acquires),
		Releases:     sortedTokens(fi.releases),
		RequiresHeld: sortedTokens(fi.requires),
	}
}

// entryHeld maps a candidate's requirement tokens into absolute keys.
func (fi *gbFunc) entryHeld() lockSet {
	entry := make(lockSet)
	if fi.recvName == "" {
		return entry
	}
	for tok := range fi.requires {
		g, read := splitToken(tok)
		entry[heldKey(fi.recvName, g, read)] = token.NoPos
	}
	return entry
}

// summariesEqual compares two token-set triples.
func tokenSetsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// freshLocalObjects returns the local variables of body that are bound
// to freshly-constructed values (composite literals, new(T)): objects
// that cannot yet be shared with another goroutine, whose field
// accesses the checker therefore skips (the constructor-initialisation
// pattern).
func freshLocalObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	freshRHS := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return false
			}
			_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
			return isLit
		case *ast.CallExpr:
			id, ok := ast.Unparen(e.Fun).(*ast.Ident)
			return ok && id.Name == "new" && pass.Info.Uses[id] == nil
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !freshRHS(n.Rhs[i]) {
					continue
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			// `var s store` (zero value) and `var s = store{...}`.
			for i, name := range n.Names {
				ok := len(n.Values) == 0 && n.Type != nil
				if !ok && i < len(n.Values) {
					ok = freshRHS(n.Values[i])
				}
				if !ok {
					continue
				}
				if obj := pass.Info.Defs[name]; obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// rootObject resolves the leftmost identifier of an access base
// expression (the "f" of f.inner.alive), or nil.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

func runGuardedBy(pass *Pass) {
	gt := collectGuards(pass)

	// Summarise every declared function.
	var funcs []*gbFunc
	byObj := make(map[*types.Func]*gbFunc)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			_, recvName := receiverOf(pass, fd)
			fi := &gbFunc{
				decl:     fd,
				obj:      obj,
				recvName: recvName,
				requires: make(map[string]bool),
				acquires: make(map[string]bool),
				releases: make(map[string]bool),
				graph:    cfg.New(fd.Body),
			}
			args, hasDirective := requiresHeldArgs(fd)
			if recvName != "" && (hasDirective || strings.HasSuffix(fd.Name.Name, "Locked")) {
				fi.candidate = true
				fi.explicit = args
			}
			funcs = append(funcs, fi)
			byObj[obj] = fi
		}
	}

	resolver := func(fn *types.Func) *LockFact {
		if fi, same := byObj[fn]; same {
			return fi.fact()
		}
		var lf LockFact
		if pass.ImportObjectFact(fn, &lf) {
			return &lf
		}
		return nil
	}

	// Fixpoint over the package: each round recomputes every function's
	// acquires/releases/requires with the current summaries visible, so
	// wrapper-of-wrapper and Locked-helper-calls-Locked-helper chains
	// converge. Summary sets only grow, so termination is guaranteed;
	// the bound is paranoia against a pathological package.
	for round := 0; round < 16; round++ {
		changed := false
		for _, fi := range funcs {
			if summarize(pass, gt, fi, resolver) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Export the summaries for dependent packages.
	for _, fi := range funcs {
		if lf := fi.fact(); lf != nil {
			pass.ExportObjectFact(fi.obj, lf)
		}
	}

	// Checking pass: report unguarded accesses and unsatisfied
	// requires-held call sites, in every declared function and every
	// function literal (literals run with an empty entry set — a
	// goroutine body cannot inherit its spawner's locks).
	if pass.FactsOnly {
		return
	}
	for _, fi := range funcs {
		if len(fi.badGuards) > 0 {
			for _, g := range fi.badGuards {
				pass.Reportf(fi.decl.Pos(), "requiresheld directive names %q, which is not a mutex field of the receiver's struct", g)
			}
		}
		checkFunc(pass, gt, fi.graph, fi.entryHeld(), fi.decl.Body, resolver)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncLits(pass, gt, fd.Body, resolver)
		}
	}
}

// checkFuncLits analyzes every function literal under root as an
// independent function with an empty entry lock set.
func checkFuncLits(pass *Pass, gt *guardTable, root ast.Node, resolver func(*types.Func) *LockFact) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		checkFunc(pass, gt, cfg.New(lit.Body), nil, lit.Body, resolver)
		// Nested literals are reached through the recursive Inspect of
		// checkFunc's own body walk — stop here to avoid double reports.
		checkFuncLits(pass, gt, lit.Body, resolver)
		return false
	})
}

// summarize recomputes one function's lock-set summary, reporting
// whether anything changed. Every summary entry is relative to the
// receiver, so a function without one summarizes to nothing.
func summarize(pass *Pass, gt *guardTable, fi *gbFunc, resolver func(*types.Func) *LockFact) bool {
	if fi.recvName == "" {
		return false
	}
	// The summary flow runs with an EMPTY entry set, even for
	// requires-held candidates: an access satisfied only by the caller's
	// lock must stay visibly unsatisfied here, or the inferred
	// requirement would evaporate on the next fixpoint round. (The
	// checking pass is what runs with the requirement pre-held.)
	flow := lockFlow{pass: pass, resolver: resolver, must: true}
	res := flow.solve(fi.graph, nil)

	acquires := make(map[string]bool)
	releases := make(map[string]bool)
	requires := make(map[string]bool)
	deferred := make(map[string]bool)
	prefix := fi.recvName + "."
	// recvToken maps a held-set key on the receiver's own locks to its
	// relative token.
	recvToken := func(k string) (string, bool) {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			return "", false
		}
		g, read := strings.CutSuffix(rest, readKeySuffix)
		return relToken(g, read), true
	}

	// Candidates without an explicit guard list accumulate the receiver
	// guards their unguarded accesses (and their calls into fellow
	// requires-held helpers) demand.
	infer := fi.candidate && len(fi.explicit) == 0
	var probesOf func(ast.Node) []probe
	if infer {
		probesOf = func(n ast.Node) []probe { return nodeGuardProbes(gt, n, resolver) }
	}
	flow.replay(fi.graph, res, probesOf, func(held lockSet, ev probe) {
		switch ev := ev.(type) {
		case *lockEvent:
			// Releases: unlocks of receiver locks the function did not
			// itself hold at that point (unlock-wrapper helpers).
			for _, k := range ev.release {
				if ev.deferred {
					deferred[k] = true
				} else if tok, ok := recvToken(k); ok && !held.has(k) {
					releases[tok] = true
				}
			}
		case *accessEvent:
			if ev.base != fi.recvName {
				return
			}
			if heldSatisfies(held, ev.base, ev.ref.guard, !ev.write && ev.ref.rw) {
				return
			}
			if ev.write || !ev.ref.rw {
				// A write (or any access through a plain Mutex)
				// demands the write lock, upgrading an earlier
				// read-only requirement.
				delete(requires, relToken(ev.ref.guard, true))
				requires[relToken(ev.ref.guard, false)] = true
				return
			}
			if !requires[relToken(ev.ref.guard, false)] {
				requires[relToken(ev.ref.guard, true)] = true
			}
		case *callEvent:
			if ev.base != fi.recvName {
				return
			}
			for _, tok := range ev.requires {
				g, read := splitToken(tok)
				if heldSatisfies(held, ev.base, g, read) {
					continue
				}
				if read && requires[relToken(g, false)] {
					continue
				}
				requires[tok] = true
			}
		}
	})

	// Acquires: receiver locks held on every return path, minus
	// defer-released ones (which fire before control reaches the
	// caller).
	var exitHeld lockSet
	for _, b := range exitBlocks(fi.graph) {
		out := res.Out[b]
		if exitHeld == nil {
			exitHeld = out.clone()
			continue
		}
		for k := range exitHeld {
			if !out.has(k) {
				delete(exitHeld, k)
			}
		}
	}
	for k := range exitHeld {
		if tok, ok := recvToken(k); ok && !deferred[k] {
			acquires[tok] = true
		}
	}

	if fi.candidate && !infer {
		fi.badGuards = fi.badGuards[:0]
		for _, g := range fi.explicit {
			if receiverHasMutexField(pass, fi.decl, g) {
				requires[g] = true
			} else if !contains(fi.badGuards, g) {
				fi.badGuards = append(fi.badGuards, g)
			}
		}
	}
	// Keep the stronger write requirement only.
	for tok := range requires {
		if g, read := splitToken(tok); read && requires[relToken(g, false)] {
			delete(requires, tok)
		}
	}

	changed := !tokenSetsEqual(acquires, fi.acquires) ||
		!tokenSetsEqual(releases, fi.releases) ||
		!tokenSetsEqual(requires, fi.requires)
	fi.acquires, fi.releases, fi.requires = acquires, releases, requires
	return changed
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// receiverHasMutexField reports whether the receiver's struct type has
// a mutex field named g.
func receiverHasMutexField(pass *Pass, fd *ast.FuncDecl, g string) bool {
	recv, _ := receiverOf(pass, fd)
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != g {
			continue
		}
		isMu, _ := mutexKind(f.Type())
		return isMu
	}
	return false
}

// checkFunc reports unguarded accesses and unsatisfied requires-held
// calls in one function body.
func checkFunc(pass *Pass, gt *guardTable, g *cfg.Graph, entry lockSet, body *ast.BlockStmt, resolver func(*types.Func) *LockFact) {
	flow := lockFlow{pass: pass, resolver: resolver, must: true}
	res := flow.solve(g, entry)
	fresh := freshLocalObjects(pass, body)
	reported := make(map[token.Pos]bool)
	probesOf := func(n ast.Node) []probe { return nodeGuardProbes(gt, n, resolver) }
	flow.replay(g, res, probesOf, func(held lockSet, ev probe) {
		switch ev := ev.(type) {
		case *accessEvent:
			if reported[ev.pos] {
				return
			}
			if obj := rootObject(pass, ev.sel.X); obj != nil && fresh[obj] {
				return // unpublished constructor-local value
			}
			verb := "read"
			if ev.write {
				verb = "written"
			}
			need := heldKey(ev.base, ev.ref.guard, false)
			if ev.write || !ev.ref.rw {
				if !held.has(need) {
					reported[ev.pos] = true
					if ev.write && ev.ref.rw && held.has(heldKey(ev.base, ev.ref.guard, true)) {
						pass.Reportf(ev.pos, "guarded field %s is written while holding only %s.RLock(); writes need %s.Lock()",
							types.ExprString(ev.sel), need, need)
						return
					}
					pass.Reportf(ev.pos, "guarded field %s is %s without holding %s (//ecolint:guardedby %s)",
						types.ExprString(ev.sel), verb, need, ev.ref.guard)
				}
				return
			}
			// Read of an RWMutex-guarded field: either half will do.
			if !heldSatisfies(held, ev.base, ev.ref.guard, true) {
				reported[ev.pos] = true
				pass.Reportf(ev.pos, "guarded field %s is read without holding %s or %s.RLock() (//ecolint:guardedby %s)",
					types.ExprString(ev.sel), need, ev.base+"."+ev.ref.guard, ev.ref.guard)
			}
		case *callEvent:
			for _, tok := range ev.requires {
				gname, read := splitToken(tok)
				if heldSatisfies(held, ev.base, gname, read) {
					continue
				}
				if reported[ev.pos] {
					continue
				}
				if root := rootObjectOfBase(pass, ev, body); root != nil && fresh[root] {
					continue
				}
				reported[ev.pos] = true
				pass.Reportf(ev.pos, "call to %s requires %s held (//ecolint:requiresheld contract)",
					ev.callee.Name(), describeToken(ev.base, tok))
			}
		}
	})
}

// rootObjectOfBase finds the root object of a call event's receiver
// base by scanning the body for the call expression (the event carries
// only the printed base, so resolve through the AST at its position).
func rootObjectOfBase(pass *Pass, ev *callEvent, body *ast.BlockStmt) types.Object {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() != ev.pos {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			obj = rootObject(pass, sel.X)
		}
		return false
	})
	return obj
}
