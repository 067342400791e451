package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ecocapsule/internal/analysis/cfg"
)

// This file is the one lock-set engine of the concurrency-safety suite.
// locksafety, guardedby and closurecapture all read lock sets from it:
// one event extractor (nodeLockEvents), one cfg.Forward flow over one
// lattice (lockFlow.solve), one replay (lockFlow.replay) and one exit
// scan (exitBlocks).
//
// Held-set keys are the printed receiver expression of the lock ("s.mu"),
// with readKeySuffix for the read half of an RWMutex ("s.mu (read)").

// lockSet maps each held lock key to the position of the CFG node that
// acquired it: the earliest such node across joined paths, so leak
// messages are stable.
type lockSet map[string]token.Pos

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockSet) has(key string) bool {
	_, ok := s[key]
	return ok
}

// lockEvent is one held-set mutation of a CFG node: a direct
// sync.(RW)Mutex call, the summary effect of a call into a function with
// a LockFact, or a release made by defer.
type lockEvent struct {
	pos     token.Pos
	acquire []string // absolute keys entering the held set
	release []string // absolute keys leaving the held set
	// deferred marks a release made by `defer mu.Unlock()` or by an
	// unlock inside a deferred literal: it runs at every exit after the
	// defer statement.
	deferred bool
}

// Pos makes a lock event a replay probe.
func (ev *lockEvent) Pos() token.Pos { return ev.pos }

// probe is one positioned event of a replay: a lock event, or whatever a
// client merges into the stream (a guarded access, a requires-held call,
// a captured write).
type probe interface{ Pos() token.Pos }

// syncLockMethod returns the held-set key of a call to a
// sync.Mutex/sync.RWMutex Lock, Unlock, RLock or RUnlock method, and
// whether the call acquires it.
func syncLockMethod(pass *Pass, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return recv, true, true
	case "Unlock":
		return recv, false, true
	case "RLock":
		return recv + readKeySuffix, true, true
	case "RUnlock":
		return recv + readKeySuffix, false, true
	}
	return "", false, false
}

// nodeLockEvents collects the lock events of one CFG node in position
// order. Function literals are skipped: they run later, if at all. A
// defer contributes only its unlocks, direct or inside a deferred
// literal, marked deferred. Calls into functions whose facts carry
// acquires or releases count when facts is non-nil.
func nodeLockEvents(pass *Pass, n ast.Node, facts func(fn *types.Func) *LockFact) []*lockEvent {
	var events []*lockEvent
	deferredUnlock := func(call *ast.CallExpr) {
		if key, acquire, ok := syncLockMethod(pass, call); ok && !acquire {
			events = append(events, &lockEvent{pos: call.Pos(), release: []string{key}, deferred: true})
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, isLit := ast.Unparen(x.Call.Fun).(*ast.FuncLit); isLit {
				ast.Inspect(lit.Body, func(y ast.Node) bool {
					if call, isCall := y.(*ast.CallExpr); isCall {
						deferredUnlock(call)
					}
					return true
				})
			} else {
				deferredUnlock(x.Call)
			}
			return false
		case *ast.CallExpr:
			if key, acquire, ok := syncLockMethod(pass, x); ok {
				ev := &lockEvent{pos: x.Pos()}
				if acquire {
					ev.acquire = []string{key}
				} else {
					ev.release = []string{key}
				}
				events = append(events, ev)
				return true
			}
			callee, base := callTarget(pass, x)
			if callee == nil || base == "" || facts == nil {
				return true
			}
			if lf := facts(callee); lf != nil && (len(lf.Acquires) > 0 || len(lf.Releases) > 0) {
				ev := &lockEvent{pos: x.Pos()}
				for _, tok := range lf.Acquires {
					ev.acquire = append(ev.acquire, tokenToKey(base, tok))
				}
				for _, tok := range lf.Releases {
					ev.release = append(ev.release, tokenToKey(base, tok))
				}
				events = append(events, ev)
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockFlow is the lock-set dataflow over one function graph, in one of
// two modes:
//
//   - may (must == false): union join; a deferred release applies at the
//     defer, since every later exit runs it. locksafety's leak check.
//   - must: intersection join; deferred releases are ignored, so
//     `defer mu.Unlock()` holds the lock to the end of the function.
//     What guardedby and closurecapture check accesses against.
//
// resolver supplies the LockFacts of called functions; nil keeps the
// flow intraprocedural (direct sync calls only).
type lockFlow struct {
	pass     *Pass
	resolver func(*types.Func) *LockFact
	must     bool
}

// apply performs ev on held, recording at as the acquiring position.
func (f lockFlow) apply(held lockSet, ev *lockEvent, at token.Pos) {
	if ev.deferred && f.must {
		return
	}
	for _, k := range ev.acquire {
		if !held.has(k) {
			held[k] = at
		}
	}
	for _, k := range ev.release {
		delete(held, k)
	}
}

func (f lockFlow) join(dst, src lockSet) (lockSet, bool) {
	changed := false
	if f.must {
		for k := range dst {
			if !src.has(k) {
				delete(dst, k)
				changed = true
			}
		}
		return dst, changed
	}
	for k, pos := range src {
		if prev, ok := dst[k]; !ok || pos < prev {
			dst[k] = pos
			changed = true
		}
	}
	return dst, changed
}

// solve runs the flow over g from the entry held set (nil: nothing held).
func (f lockFlow) solve(g *cfg.Graph, entry lockSet) cfg.Result[lockSet] {
	return cfg.Forward(g, cfg.Flow[lockSet]{
		Entry: entry.clone,
		Copy:  lockSet.clone,
		Join:  f.join,
		Transfer: func(b *cfg.Block, in lockSet) lockSet {
			out := in.clone()
			for _, n := range b.Nodes {
				for _, ev := range nodeLockEvents(f.pass, n, f.resolver) {
					f.apply(out, ev, n.Pos())
				}
			}
			return out
		},
	})
}

// replay walks the solved flow block by block and node by node. It
// merges each node's lock events with the probes probesOf returns for
// the node (sorted by position) in position order, a lock event first
// at a tie, and calls visit with the held set as it stood just before
// each event. visit sees every lock event, deferred ones included,
// before it applies; it must not keep or mutate held.
func (f lockFlow) replay(g *cfg.Graph, res cfg.Result[lockSet], probesOf func(ast.Node) []probe, visit func(held lockSet, ev probe)) {
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		held := in.clone()
		for _, n := range b.Nodes {
			locks := nodeLockEvents(f.pass, n, f.resolver)
			var probes []probe
			if probesOf != nil {
				probes = probesOf(n)
			}
			for len(locks) > 0 || len(probes) > 0 {
				if len(locks) > 0 && (len(probes) == 0 || locks[0].pos <= probes[0].Pos()) {
					visit(held, locks[0])
					f.apply(held, locks[0], n.Pos())
					locks = locks[1:]
					continue
				}
				visit(held, probes[0])
				probes = probes[1:]
			}
		}
	}
}

// exitBlocks returns the reachable blocks with an edge to g's Exit: the
// blocks that hand control back to the caller.
func exitBlocks(g *cfg.Graph) []*cfg.Block {
	var out []*cfg.Block
	for _, b := range g.Reachable() {
		for _, s := range b.Succs {
			if s == g.Exit {
				out = append(out, b)
				break
			}
		}
	}
	return out
}
