package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// UnitSafety flags unit handling that has historically corrupted SHM data:
//
//  1. bare magic multipliers (1e3, 1e6, 1e-3, ...) written into expressions
//     whose identifier names imply a physical dimension for which
//     internal/units already defines a named constant (units.KHz, units.MM,
//     units.US, ...), and
//  2. addition or subtraction of two identifiers whose names imply
//     *different* dimensions (freqHz + periodS), which is always a bug.
//
// A wrong unit multiplier does not crash; it silently scales strain, modal
// frequency or wave-speed readings by 10^3 or 10^6 and poisons every
// downstream health grade.
var UnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc: "flags bare unit-multiplier literals where an internal/units constant exists, " +
		"and additions mixing identifiers of different physical dimensions",
	Run: runUnitSafety,
}

type dimension int

const (
	dimNone dimension = iota
	dimFreq
	dimTime
	dimLength
	dimPressure
	dimPower
	dimVoltage
	dimEnergy
)

func (d dimension) String() string {
	switch d {
	case dimFreq:
		return "frequency"
	case dimTime:
		return "time"
	case dimLength:
		return "length"
	case dimPressure:
		return "pressure"
	case dimPower:
		return "power"
	case dimVoltage:
		return "voltage"
	case dimEnergy:
		return "energy"
	}
	return "unknown"
}

// dimWords maps lower-cased identifier words to the dimension they imply.
// Matching is whole-word (after splitting camelCase / snake_case), never
// substring, so "offset" does not match "fs".
var dimWords = map[string]dimension{
	"freq": dimFreq, "freqs": dimFreq, "frequency": dimFreq, "hz": dimFreq, "khz": dimFreq,
	"mhz": dimFreq, "rate": dimFreq, "fs": dimFreq, "blf": dimFreq,

	"time": dimTime, "dur": dimTime, "duration": dimTime, "delay": dimTime,
	"period": dimTime, "interval": dimTime, "dt": dimTime, "timeout": dimTime,
	"sec": dimTime, "secs": dimTime, "seconds": dimTime, "ms": dimTime, "us": dimTime,

	"length": dimLength, "wavelength": dimLength, "dist": dimLength,
	"distance": dimLength, "width": dimLength, "height": dimLength,
	"thickness": dimLength, "thick": dimLength, "radius": dimLength,
	"depth": dimLength, "spacing": dimLength, "mm": dimLength, "cm": dimLength,
	"m": dimLength, "meters": dimLength, "metres": dimLength,

	"pressure": dimPressure, "stress": dimPressure, "modulus": dimPressure,
	"pa": dimPressure, "kpa": dimPressure, "mpa": dimPressure, "gpa": dimPressure,

	"power": dimPower, "watt": dimPower, "watts": dimPower,
	"uw": dimPower, "mw": dimPower,

	"voltage": dimVoltage, "volt": dimVoltage, "volts": dimVoltage,
	"mv": dimVoltage, "uv": dimVoltage, "vin": dimVoltage, "vout": dimVoltage,

	"energy": dimEnergy, "joule": dimEnergy, "joules": dimEnergy,
	"uj": dimEnergy, "mj": dimEnergy,
}

// unitConsts lists, per dimension, the internal/units constant to suggest
// for each magic multiplier value.
var unitConsts = map[dimension]map[float64]string{
	dimFreq:     {1e3: "units.KHz", 1e6: "units.MHz"},
	dimTime:     {1e-3: "units.MS", 1e-6: "units.US"},
	dimLength:   {1e-3: "units.MM", 1e-2: "units.CM"},
	dimPressure: {1e3: "units.KPa", 1e6: "units.MPa", 1e9: "units.GPa"},
	dimPower:    {1e-6: "units.UW", 1e-3: "units.MW"},
	dimVoltage:  {1e-3: "units.MV", 1e-6: "units.UV"},
	dimEnergy:   {1e-3: "units.MJ", 1e-6: "units.UJ"},
}

// splitWords breaks an identifier into lower-cased words at camelCase and
// snake_case boundaries: "SampleRateHz" -> [sample rate hz].
func splitWords(name string) []string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_':
			flush()
		case unicode.IsUpper(r):
			// Start a new word unless we are inside an all-caps run that
			// continues (e.g. the "BLF" in "targetBLF").
			if i > 0 && !unicode.IsUpper(runes[i-1]) {
				flush()
			} else if i > 0 && i+1 < len(runes) && unicode.IsUpper(runes[i-1]) && unicode.IsLower(runes[i+1]) {
				flush()
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return words
}

// nameDimension infers the dimension implied by an identifier name, or
// dimNone when the words are ambiguous (two different dimensions) or carry
// no unit hint.
func nameDimension(name string) dimension {
	found := dimNone
	for _, w := range splitWords(name) {
		if d, ok := dimWords[w]; ok {
			if found != dimNone && found != d {
				return dimNone
			}
			found = d
		}
	}
	return found
}

// exprName returns the identifier text that names the quantity an
// expression refers to ("cfg.SampleRate" -> "SampleRate"), or "".
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	}
	return ""
}

func runUnitSafety(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/units") {
		return // the package that defines the constants may use raw values
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						checkMagic(pass, name.Name, n.Values[i])
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) {
						checkMagic(pass, exprName(lhs), n.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					checkMagic(pass, k.Name, n.Value)
				}
			case *ast.BinaryExpr:
				switch n.Op {
				case token.MUL, token.QUO:
					if name := exprName(n.X); name != "" {
						checkMagic(pass, name, n.Y)
					}
					if n.Op == token.MUL {
						if name := exprName(n.Y); name != "" {
							checkMagic(pass, name, n.X)
						}
					}
				case token.ADD, token.SUB:
					checkMixedDims(pass, n)
				}
			}
			return true
		})
	}
}

// checkMagic reports value when it is a bare literal equal to a known unit
// multiplier for the dimension implied by name. Products recurse into both
// factors, so `DiodeDrop: 120 * 1e-3` flags the 1e-3 the same way a bare
// `DiodeDrop: 1e-3` would.
func checkMagic(pass *Pass, name string, value ast.Expr) {
	if name == "" {
		return
	}
	value = ast.Unparen(value)
	if bin, ok := value.(*ast.BinaryExpr); ok && bin.Op == token.MUL {
		checkMagic(pass, name, bin.X)
		checkMagic(pass, name, bin.Y)
		return
	}
	lit, ok := value.(*ast.BasicLit)
	if !ok || (lit.Kind != token.FLOAT && lit.Kind != token.INT) {
		return
	}
	dim := nameDimension(name)
	if dim == dimNone {
		return
	}
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Float && tv.Value.Kind() != constant.Int {
		return
	}
	v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
	if c, ok := unitConsts[dim][v]; ok {
		pass.Reportf(lit.Pos(), "magic literal %s in %s expression %q; use %s", lit.Value, dim, name, c)
	}
}

// checkMixedDims reports x+y / x-y when both operand names imply dimensions
// and the dimensions differ.
func checkMixedDims(pass *Pass, n *ast.BinaryExpr) {
	nx, ny := exprName(n.X), exprName(n.Y)
	if nx == "" || ny == "" {
		return
	}
	dx, dy := nameDimension(nx), nameDimension(ny)
	if dx == dimNone || dy == dimNone || dx == dy {
		return
	}
	// Only arithmetic on numeric operands can be a unit bug.
	if !isNumeric(pass.TypeOf(n.X)) || !isNumeric(pass.TypeOf(n.Y)) {
		return
	}
	pass.Reportf(n.OpPos, "%s %s %s mixes dimensions (%s %s %s)", nx, n.Op, ny, dx, n.Op, dy)
}

func isNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
