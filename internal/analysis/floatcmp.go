package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// floatCmpPackages are the numerical-physics packages where exact float
// equality is almost always a latent bug: quantities there come out of
// transcendental math and accumulate rounding, so `==` silently stops
// matching after an innocent refactor.
var floatCmpPackages = map[string]bool{
	"physics":  true,
	"channel":  true,
	"geometry": true,
}

// FloatCmp flags == and != between floating-point operands in the physics,
// channel, and geometry packages. Comparisons against the literal zero are
// exempt: `cfg.SampleRate == 0` is the established "field not set" sentinel
// idiom and involves no accumulated rounding. _test.go files are exempt
// too: there exact equality is the assertion (a cached result against a
// fresh one, a catalog value against its literal, the determinism
// contract), not a latent bug.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "flags ==/!= on floating-point operands in non-test physics, channel and geometry code " +
		"(zero-sentinel comparisons exempt); compare with a tolerance instead",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	if !floatCmpPackages[path.Base(pass.Pkg.Path())] {
		return
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(cmp.X)) || !isFloat(pass.TypeOf(cmp.Y)) {
				return true
			}
			if isZeroConst(pass, cmp.X) || isZeroConst(pass, cmp.Y) {
				return true
			}
			pass.Reportf(cmp.OpPos, "exact floating-point %s comparison; use a tolerance (math.Abs(a-b) < eps)", cmp.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return constant.Sign(tv.Value) == 0
}
