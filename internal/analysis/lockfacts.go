package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the concurrency-safety
// suite: per-function lock-set summaries ("this method acquires f.mu",
// "this helper must be called with f.mu held") exported as object facts
// so that the guardedby analyzer can resolve guarded accesses through
// helper calls — including helpers in other packages — without
// re-walking their bodies.
//
// Summary entries are *receiver-relative* guard tokens: "mu" names the
// receiver's write lock and "mu:r" its read lock. A call site maps them
// back into the caller's frame through the callee's receiver
// expression: f.markDeadLocked() with a RequiresHeld of ["mu"] demands
// the key "f.mu" in the caller's held set.

// LockFact is the exported per-function lock-set summary.
type LockFact struct {
	// Acquires lists receiver-relative locks the function holds on every
	// return path without releasing (lock-wrapper helpers).
	Acquires []string
	// Releases lists receiver-relative locks the function releases
	// without having acquired them itself (unlock-wrapper helpers).
	Releases []string
	// RequiresHeld lists receiver-relative locks the caller must hold
	// around the call ("mu" demands the write lock, "mu:r" is satisfied
	// by either half of an RWMutex).
	RequiresHeld []string
}

// AFact marks LockFact as a fact.
func (*LockFact) AFact() {}

// readTokenSuffix marks the read half of an RWMutex in relative guard
// tokens ("mu:r") — see LockFact.
const readTokenSuffix = ":r"

// readKeySuffix marks the read half of an RWMutex in absolute held-set
// keys ("f.mu (read)"); see lockset.go.
const readKeySuffix = " (read)"

// relToken builds a receiver-relative guard token.
func relToken(guard string, read bool) string {
	if read {
		return guard + readTokenSuffix
	}
	return guard
}

// splitToken decomposes a relative token into guard name and read flag.
func splitToken(tok string) (guard string, read bool) {
	if g, ok := strings.CutSuffix(tok, readTokenSuffix); ok {
		return g, true
	}
	return tok, false
}

// heldKey builds the absolute held-set key for base expression b and
// guard field g ("f.mu", "f.mu (read)"). It matches the key scheme of
// syncLockMethod so that directly-observed Lock calls and fact-mapped
// helper calls land in the same namespace.
func heldKey(base, guard string, read bool) string {
	k := base + "." + guard
	if read {
		k += readKeySuffix
	}
	return k
}

// tokenToKey maps a receiver-relative token into the caller's frame.
func tokenToKey(base, tok string) string {
	g, read := splitToken(tok)
	return heldKey(base, g, read)
}

// sortedTokens renders a token set as a sorted slice (stable facts and
// stable diagnostics).
func sortedTokens(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// describeToken renders a relative token for a diagnostic, prefixed
// with the call-site base expression: ("f", "mu") -> "f.mu.Lock()",
// ("f", "mu:r") -> "f.mu.RLock()".
func describeToken(base, tok string) string {
	g, read := splitToken(tok)
	if read {
		return base + "." + g + ".RLock()"
	}
	return base + "." + g + ".Lock()"
}

// heldSatisfies reports whether the held-set keys satisfy a need for
// base.guard: a write need requires the write key; a read need is
// satisfied by either half.
func heldSatisfies(held lockSet, base, guard string, read bool) bool {
	if held.has(heldKey(base, guard, false)) {
		return true
	}
	return read && held.has(heldKey(base, guard, true))
}

// receiverOf returns the receiver variable and its printed name for a
// method declaration, or nil for plain functions and methods with an
// anonymous receiver.
func receiverOf(pass *Pass, fn *ast.FuncDecl) (*types.Var, string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil, ""
	}
	name := fn.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil, ""
	}
	v, _ := pass.Info.Defs[name].(*types.Var)
	if v == nil {
		return nil, ""
	}
	return v, name.Name
}

// callTarget resolves a call to (callee, base expression) where base is
// the printed receiver of a method call ("f" for f.markDead(...)).
// Plain function calls return base == "".
func callTarget(pass *Pass, call *ast.CallExpr) (*types.Func, string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn, ""
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return nil, ""
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return fn, types.ExprString(fun.X)
		}
		return fn, "" // package-qualified plain function
	}
	return nil, ""
}

// RequiresHeldDirective marks a function that must be entered with the
// named receiver locks held:
//
//	//ecolint:requiresheld mu
//
// placed in the function's doc comment. Functions whose name ends in
// "Locked" carry the same contract implicitly, with the required guards
// inferred from the guarded fields they touch.
const RequiresHeldDirective = "//ecolint:requiresheld"
