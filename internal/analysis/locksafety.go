package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"ecocapsule/internal/analysis/cfg"
)

// LockSafety reports locks still held when control reaches a return (the
// classic early-return leak: `mu.Lock(); if err != nil { return err };
// mu.Unlock()`). It runs the may-held lock-set flow (lockset.go) over
// each function body: a deferred unlock releases at the point the defer
// statement executes, so every exit after it is covered, and blocks that
// end in panic or t.Fatal have no edge to the exit, so crash paths don't
// misfire. The flow is intraprocedural: a call into a lock or unlock
// helper does not change the held set.
//
// A lock copied by value is go vet's copylocks check, which verify.sh
// runs as a hard gate.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc: "reports sync.Mutex/sync.RWMutex locks still held on an early-return path " +
		"(CFG dataflow; lock copies are go vet's copylocks check)",
	Run: runLockSafety,
}

func runLockSafety(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				checkLockBalance(pass, fn)
			}
		}
	}
}

// checkLockBalance runs the early-return dataflow on one function.
func checkLockBalance(pass *Pass, fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	// Cheap pre-filter: no Lock/RLock call, nothing to do.
	hasAcquire := false
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if _, acquire, ok := syncLockMethod(pass, call); ok && acquire {
				hasAcquire = true
			}
		}
		return !hasAcquire
	})
	if !hasAcquire {
		return
	}

	g := cfg.New(fn.Body)
	res := lockFlow{pass: pass}.solve(g, nil)

	// Report every lock still held when an exit block hands control back.
	reported := make(map[string]bool) // key+return line, to dedupe joins
	for _, b := range exitBlocks(g) {
		held := res.Out[b]
		if len(held) == 0 {
			continue
		}
		retPos := returnPosOf(b, fn)
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lockLine := pass.Fset.Position(held[k]).Line
			id := fmt.Sprintf("%s@%d", k, pass.Fset.Position(retPos).Line)
			if reported[id] {
				continue
			}
			reported[id] = true
			pass.Reportf(retPos, "%s locked at line %d is still held on this return path (missing Unlock or defer)",
				describeLock(k), lockLine)
		}
	}
}

// returnPosOf finds the position to report for an exiting block: its
// return statement if present, else the function's closing brace
// (fall-off-the-end exit).
func returnPosOf(b *cfg.Block, fn *ast.FuncDecl) token.Pos {
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		if ret, ok := b.Nodes[i].(*ast.ReturnStmt); ok {
			return ret.Pos()
		}
	}
	return fn.Body.Rbrace
}

func describeLock(key string) string {
	if lock, read := strings.CutSuffix(key, readKeySuffix); read {
		return lock + ".RLock()"
	}
	return key + ".Lock()"
}
