package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"ecocapsule/internal/analysis/cfg"
)

// UnitDirective declares the physical dimension of a parameter, result,
// struct field or package-level var/const:
//
//	//ecolint:unit <dim>                 on a field or var/const spec
//	//ecolint:unit <param> <dim>         in a function's doc comment
//	//ecolint:unit return <dim>          for the first result
//
// The dimension grammar is a product/quotient of base units with
// optional integer exponents:
//
//	hz | s | m | pa | v | j | w | db | dimensionless
//	m/s^2   v*s   j/s   pa·m
//
// hz and w are derived (hz = s^-1, w = j/s) so sample-count arithmetic
// (fs·t) and power-energy arithmetic (p·t = e) type-check without
// special cases. A slice or array annotation describes its elements.
const UnitDirective = "//ecolint:unit"

// dimAxes are the independent base dimensions of the algebra. Pressure,
// voltage and energy stay independent axes on purpose: pa = j/m³ is a
// physical identity the simulation never exploits, and collapsing it
// would let a stress slot absorb an energy density unnoticed.
var dimAxes = [...]string{"s", "m", "pa", "v", "j", "db"}

const (
	axS = iota
	axM
	axPa
	axV
	axJ
	axDb
	dimNAxes
)

type dimKind uint8

const (
	// dimBottom is "no information": it absorbs every operation and is
	// never reported against, so unannotated code stays silent.
	dimBottom dimKind = iota
	// dimScalar is a bare numeric literal: the multiplicative identity,
	// compatible with any dimension under + - and comparisons.
	dimScalar
	// dimVec is a concrete exponent vector; all-zero = dimensionless.
	dimVec
)

// dim is one lattice value of the dimension dataflow.
type dim struct {
	kind dimKind
	exp  [dimNAxes]int8
}

func (d dim) concrete() bool { return d.kind == dimVec }

// baseDim resolves one grammar token to its exponent vector.
func baseDim(name string) (d [dimNAxes]int8, ok bool) {
	switch name {
	case "dimensionless", "1":
	case "s":
		d[axS] = 1
	case "hz":
		d[axS] = -1
	case "m":
		d[axM] = 1
	case "pa":
		d[axPa] = 1
	case "v":
		d[axV] = 1
	case "j":
		d[axJ] = 1
	case "w":
		d[axJ], d[axS] = 1, -1
	case "db":
		d[axDb] = 1
	default:
		return d, false
	}
	return d, true
}

// parseDim parses the annotation grammar: factors joined by * or ·,
// with at most one / separating numerator from denominator, each
// factor base^exp.
func parseDim(text string) (dim, bool) {
	num, den, slash := strings.Cut(text, "/")
	d := dim{kind: dimVec}
	apply := func(part string, sign int) bool {
		for _, f := range strings.FieldsFunc(part, func(r rune) bool { return r == '*' || r == '·' }) {
			name, expStr, hasExp := strings.Cut(f, "^")
			e := 1
			if hasExp {
				v, err := strconv.Atoi(expStr)
				if err != nil || v == 0 {
					return false
				}
				e = v
			}
			b, ok := baseDim(name)
			if !ok {
				return false
			}
			for i := range d.exp {
				d.exp[i] += int8(sign*e) * b[i]
			}
		}
		return true
	}
	if num == "" || !apply(num, 1) {
		return dim{}, false
	}
	if slash && (den == "" || !apply(den, -1)) {
		return dim{}, false
	}
	return d, true
}

// dimAlias renders well-known exponent vectors by their familiar name.
var dimAlias = map[[dimNAxes]int8]string{}

func init() {
	for _, n := range []string{"dimensionless", "s", "hz", "m", "pa", "v", "j", "w", "db"} {
		b, _ := baseDim(n)
		if _, dup := dimAlias[b]; !dup {
			dimAlias[b] = n
		}
	}
}

func (d dim) String() string {
	switch d.kind {
	case dimBottom:
		return "unknown"
	case dimScalar:
		return "scalar"
	}
	if alias, ok := dimAlias[d.exp]; ok {
		return alias
	}
	var num, den []string
	for i, e := range d.exp {
		switch {
		case e > 0:
			num = append(num, axisPow(dimAxes[i], int(e)))
		case e < 0:
			den = append(den, axisPow(dimAxes[i], int(-e)))
		}
	}
	s := "1"
	if len(num) > 0 {
		s = strings.Join(num, "·")
	}
	if len(den) > 0 {
		s += "/" + strings.Join(den, "·")
	}
	return s
}

func axisPow(name string, e int) string {
	if e == 1 {
		return name
	}
	return name + "^" + strconv.Itoa(e)
}

// dimMul composes dimensions under multiplication.
func dimMul(a, b dim) dim {
	if a.kind == dimScalar {
		return b
	}
	if b.kind == dimScalar {
		return a
	}
	if a.kind == dimBottom || b.kind == dimBottom {
		return dim{}
	}
	out := dim{kind: dimVec}
	for i := range out.exp {
		out.exp[i] = a.exp[i] + b.exp[i]
	}
	return out
}

// dimDiv composes dimensions under division (scalar/x inverts x).
func dimDiv(a, b dim) dim {
	if b.kind == dimScalar {
		return a
	}
	if a.kind == dimBottom || b.kind == dimBottom {
		return dim{}
	}
	out := dim{kind: dimVec}
	for i := range out.exp {
		if a.kind == dimVec {
			out.exp[i] = a.exp[i] - b.exp[i]
		} else {
			out.exp[i] = -b.exp[i]
		}
	}
	return out
}

// dimAdd joins dimensions under + - and comparisons: compatible unless
// both sides are concrete and different.
func dimAdd(a, b dim) (dim, bool) {
	if a.kind == dimBottom || b.kind == dimBottom {
		return dim{}, true
	}
	if a.kind == dimScalar {
		return b, true
	}
	if b.kind == dimScalar {
		return a, true
	}
	if a.exp == b.exp {
		return a, true
	}
	return dim{}, false
}

// dimSqrt halves every exponent when all are even (sqrt(m²/s²) = m/s),
// otherwise the result is unknown.
func dimSqrt(d dim) dim {
	if d.kind != dimVec {
		return d
	}
	out := dim{kind: dimVec}
	for i, e := range d.exp {
		if e%2 != 0 {
			return dim{}
		}
		out.exp[i] = e / 2
	}
	return out
}

// unitConsts names, per dimension, the internal/units constant for each
// bare multiplier literal a value of that dimension may carry.
var unitConsts = map[dim]map[float64]string{
	unitDim("hz"):            {1e3: "units.KHz", 1e6: "units.MHz"},
	unitDim("s"):             {1e-3: "units.MS", 1e-6: "units.US"},
	unitDim("m"):             {1e-3: "units.MM", 1e-2: "units.CM"},
	unitDim("pa"):            {1e3: "units.KPa", 1e6: "units.MPa", 1e9: "units.GPa"},
	unitDim("w"):             {1e-6: "units.UW", 1e-3: "units.MW"},
	unitDim("v"):             {1e-3: "units.MV", 1e-6: "units.UV"},
	unitDim("j"):             {1e-3: "units.MJ", 1e-6: "units.UJ"},
	unitDim("dimensionless"): {1e-6: "units.UE"},
}

func unitDim(name string) dim {
	b, _ := baseDim(name)
	return dim{kind: dimVec, exp: b}
}

func isNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// UnitFact carries the //ecolint:unit annotations of one package-level
// object across package boundaries: Dim for vars and consts, Params and
// Results for functions (Results aligned with the result tuple, the
// unknown dimension meaning unannotated), Fields for struct types (filed
// on the TypeName, keyed by field name).
type UnitFact struct {
	Dim     dim
	Params  map[string]dim
	Results []dim
	Fields  map[string]dim
}

// AFact marks UnitFact as a fact.
func (*UnitFact) AFact() {}

// DimCheck runs dimensional analysis over //ecolint:unit annotations.
// A Hz/seconds or pascal/volt mix-up compiles silently and poisons
// every downstream health grade; with the physics surface annotated,
// mul/div compose exponent vectors, add/sub/compare demand equal
// dimensions, and annotated signatures type-check call sites repo-wide
// through object facts. A wrong ×10³ is as silent as a wrong unit, so a
// bare multiplier literal (1e-3, 1e6, ...) that lands in a value of known
// dimension is reported with the internal/units constant to write
// instead.
var DimCheck = &Analyzer{
	Name:      "dimcheck",
	UsesFacts: true,
	Doc: "propagates //ecolint:unit dimensions (hz, s, m, pa, v, j, w, db, products like m/s^2) " +
		"through expressions and flags mixed-unit additions, comparisons, arguments, returns and stores, " +
		"and bare unit-multiplier literals where an internal/units constant exists",
	Run: runDimCheck,
}

// funcUnits is one function's declared parameter/result dimensions.
type funcUnits struct {
	params    map[string]dim
	paramObjs map[types.Object]dim
	results   []dim
}

// unitTable holds the pass-local annotation tables; imported objects
// resolve through their UnitFacts.
type unitTable struct {
	pass   *Pass
	vars   map[types.Object]dim
	fields map[*types.Var]dim
	funcs  map[*types.Func]*funcUnits
}

// dimEnv is the dataflow lattice: the dimension of each local on every
// path reaching a point. Join is intersection-where-equal.
type dimEnv map[types.Object]dim

func copyDimEnv(env dimEnv) dimEnv {
	out := make(dimEnv, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func joinDimEnv(dst, src dimEnv) (dimEnv, bool) {
	changed := false
	for k, v := range dst {
		if sv, ok := src[k]; !ok || sv != v {
			delete(dst, k)
			changed = true
		}
	}
	return dst, changed
}

// parseDeclaredDim parses the dim token of a field/var directive,
// reporting malformed grammar.
func (ut *unitTable) parseDeclaredDim(args []string, pos token.Pos) (dim, bool) {
	if len(args) == 0 {
		ut.pass.Reportf(pos, "unit directive is missing a dimension (//ecolint:unit <dim>)")
		return dim{}, false
	}
	d, ok := parseDim(args[0])
	if !ok {
		ut.pass.Reportf(pos, "unknown unit %q in //ecolint:unit directive (grammar: hz|s|m|pa|v|j|w|db|dimensionless with ^exp, ·/* products, one /)", args[0])
		return dim{}, false
	}
	return d, true
}

// collectUnits scans the package's declarations for unit annotations,
// fills the local tables and exports the corresponding facts.
func collectUnits(pass *Pass) *unitTable {
	ut := &unitTable{
		pass:   pass,
		vars:   make(map[types.Object]dim),
		fields: make(map[*types.Var]dim),
		funcs:  make(map[*types.Func]*funcUnits),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				switch decl.Tok {
				case token.VAR, token.CONST:
					for _, spec := range decl.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						doc := vs.Doc
						if doc == nil && len(decl.Specs) == 1 {
							// Unparenthesized declaration: the doc
							// comment rides on the GenDecl.
							doc = decl.Doc
						}
						ut.collectValueSpec(vs, doc)
					}
				case token.TYPE:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							ut.collectStructUnits(ts, st)
						}
					}
				}
			case *ast.FuncDecl:
				ut.collectFuncUnits(decl)
			}
		}
	}
	return ut
}

func (ut *unitTable) collectValueSpec(vs *ast.ValueSpec, doc *ast.CommentGroup) {
	dirs := append(directivesIn(doc, UnitDirective), directivesIn(vs.Comment, UnitDirective)...)
	if len(dirs) == 0 {
		return
	}
	d, ok := ut.parseDeclaredDim(dirs[0].args, dirs[0].pos)
	if !ok {
		return
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			ut.checkMultiplier(vs.Values[i], d)
		}
		obj := ut.pass.Info.Defs[name]
		if obj == nil {
			continue
		}
		ut.vars[obj] = d
		ut.pass.ExportObjectFact(obj, &UnitFact{Dim: d})
	}
}

func (ut *unitTable) collectStructUnits(ts *ast.TypeSpec, st *ast.StructType) {
	fact := &UnitFact{Fields: make(map[string]dim)}
	for _, field := range st.Fields.List {
		dirs := append(directivesIn(field.Doc, UnitDirective), directivesIn(field.Comment, UnitDirective)...)
		if len(dirs) == 0 {
			continue
		}
		d, ok := ut.parseDeclaredDim(dirs[0].args, dirs[0].pos)
		if !ok {
			continue
		}
		for _, name := range field.Names {
			if v, _ := ut.pass.Info.Defs[name].(*types.Var); v != nil {
				ut.fields[v] = d
				fact.Fields[name.Name] = d
			}
		}
	}
	if len(fact.Fields) == 0 {
		return
	}
	if tn, _ := ut.pass.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
		ut.pass.ExportObjectFact(tn, fact)
	}
}

func (ut *unitTable) collectFuncUnits(fd *ast.FuncDecl) {
	dirs := directivesIn(fd.Doc, UnitDirective)
	if len(dirs) == 0 {
		return
	}
	obj, _ := ut.pass.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil {
		return
	}
	fu := &funcUnits{
		params:    make(map[string]dim),
		paramObjs: make(map[types.Object]dim),
		results:   make([]dim, sig.Results().Len()),
	}
	// Index the parameter idents of the declaration for env seeding.
	paramIdents := make(map[string]*ast.Ident)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				paramIdents[name.Name] = name
			}
		}
	}
	for _, dir := range dirs {
		if len(dir.args) < 2 {
			ut.pass.Reportf(dir.pos, "unit directive on a function needs a target and a dimension (//ecolint:unit <param|return> <dim>)")
			continue
		}
		d, ok := parseDim(dir.args[1])
		if !ok {
			ut.pass.Reportf(dir.pos, "unknown unit %q in //ecolint:unit directive (grammar: hz|s|m|pa|v|j|w|db|dimensionless with ^exp, ·/* products, one /)", dir.args[1])
			continue
		}
		target := dir.args[0]
		if target == "return" {
			if len(fu.results) == 0 {
				ut.pass.Reportf(dir.pos, "unit directive annotates the return value of %s, which returns nothing", fd.Name.Name)
				continue
			}
			fu.results[0] = d
			continue
		}
		ident, ok := paramIdents[target]
		if !ok {
			ut.pass.Reportf(dir.pos, "unit directive names %q, which is not a parameter of %s", target, fd.Name.Name)
			continue
		}
		fu.params[target] = d
		if pobj := ut.pass.Info.Defs[ident]; pobj != nil {
			fu.paramObjs[pobj] = d
		}
	}
	if len(fu.params) == 0 && !anyConcrete(fu.results) {
		return
	}
	ut.funcs[obj] = fu
	ut.pass.ExportObjectFact(obj, &UnitFact{Params: fu.params, Results: fu.results})
}

func anyConcrete(dims []dim) bool {
	for _, d := range dims {
		if d.concrete() {
			return true
		}
	}
	return false
}

// importedVarDim resolves the declared dimension of an imported
// package-level var/const through its UnitFact.
func (ut *unitTable) importedVarDim(obj types.Object) (dim, bool) {
	var fact UnitFact
	ut.pass.ImportObjectFact(obj, &fact)
	return fact.Dim, fact.Dim.concrete()
}

// fieldDimByName resolves the declared dimension of named's field,
// local table first, then the exported fact.
func (ut *unitTable) fieldDimByName(named *types.Named, name string) (dim, bool) {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return dim{}, false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != name {
			continue
		}
		if d, ok := ut.fields[f]; ok {
			return d, true
		}
		break
	}
	var fact UnitFact
	ut.pass.ImportObjectFact(named.Obj(), &fact)
	d, ok := fact.Fields[name]
	return d, ok
}

// fieldDim resolves a selected field's dimension.
func (ut *unitTable) fieldDim(field *types.Var, recv types.Type) (dim, bool) {
	if d, ok := ut.fields[field]; ok {
		return d, true
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return dim{}, false
	}
	return ut.fieldDimByName(named, field.Name())
}

// calleeUnits resolves a callee's declared units, local table first,
// then the exported fact.
func (ut *unitTable) calleeUnits(fn *types.Func) *funcUnits {
	if fu, ok := ut.funcs[fn]; ok {
		return fu
	}
	if fn.Pkg() == ut.pass.Pkg {
		return nil
	}
	var fact UnitFact
	if !ut.pass.ImportObjectFact(fn, &fact) {
		return nil
	}
	return &funcUnits{params: fact.Params, results: fact.Results}
}

// mathTransparent lists math functions whose result carries their
// (first or joined) argument's dimension.
var mathTransparentFirst = map[string]bool{
	"Abs": true, "Floor": true, "Ceil": true, "Round": true, "Trunc": true,
	"Mod": true, "Remainder": true, "Copysign": true, "Dim": true, "Nextafter": true,
}

var mathTransparentJoin = map[string]bool{
	"Min": true, "Max": true, "Hypot": true,
}

// dimOf computes an expression's dimension under env.
func (ut *unitTable) dimOf(e ast.Expr, env dimEnv) dim {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT || e.Kind == token.FLOAT {
			return dim{kind: dimScalar}
		}
	case *ast.Ident:
		obj := ut.pass.Info.Uses[e]
		if obj == nil {
			obj = ut.pass.Info.Defs[e]
		}
		return ut.dimOfObject(obj, env)
	case *ast.SelectorExpr:
		if sel, ok := ut.pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if field, _ := sel.Obj().(*types.Var); field != nil {
				if d, ok := ut.fieldDim(field, sel.Recv()); ok {
					return d
				}
			}
			return dim{}
		}
		return ut.dimOfObject(ut.pass.Info.Uses[e.Sel], env)
	case *ast.IndexExpr:
		// An annotated slice/array describes its elements.
		return ut.dimOf(e.X, env)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return ut.dimOf(e.X, env)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.MUL:
			return dimMul(ut.dimOf(e.X, env), ut.dimOf(e.Y, env))
		case token.QUO:
			return dimDiv(ut.dimOf(e.X, env), ut.dimOf(e.Y, env))
		case token.ADD, token.SUB:
			d, _ := dimAdd(ut.dimOf(e.X, env), ut.dimOf(e.Y, env))
			return d
		}
	case *ast.CallExpr:
		return ut.dimOfCall(e, env)
	}
	return dim{}
}

func (ut *unitTable) dimOfObject(obj types.Object, env dimEnv) dim {
	if obj == nil {
		return dim{}
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
	default:
		return dim{}
	}
	if d, ok := env[obj]; ok {
		return d
	}
	if d, ok := ut.vars[obj]; ok {
		return d
	}
	if obj.Pkg() != nil && obj.Pkg() != ut.pass.Pkg {
		if d, ok := ut.importedVarDim(obj); ok {
			return d
		}
	}
	// An unannotated named constant behaves like the literal it names.
	if c, ok := obj.(*types.Const); ok && isNumeric(c.Type()) {
		return dim{kind: dimScalar}
	}
	return dim{}
}

func (ut *unitTable) dimOfCall(call *ast.CallExpr, env dimEnv) dim {
	// Numeric conversions (float64(x), int(x)) are unit-transparent.
	if tv, ok := ut.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isNumeric(tv.Type) && isNumeric(ut.pass.TypeOf(call.Args[0])) {
			return ut.dimOf(call.Args[0], env)
		}
		return dim{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := ut.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "len" || id.Name == "cap" {
				return dim{kind: dimScalar} // counts combine freely
			}
			return dim{}
		}
	}
	fn := calleeFunc(ut.pass, call)
	if fn == nil {
		return dim{}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" && len(call.Args) >= 1 {
		switch {
		case fn.Name() == "Sqrt":
			return dimSqrt(ut.dimOf(call.Args[0], env))
		case mathTransparentFirst[fn.Name()]:
			return ut.dimOf(call.Args[0], env)
		case mathTransparentJoin[fn.Name()] && len(call.Args) == 2:
			d, ok := dimAdd(ut.dimOf(call.Args[0], env), ut.dimOf(call.Args[1], env))
			if !ok {
				return dim{}
			}
			return d
		default:
			// Transcendentals (Sin, Exp, Log, Pow, ...) produce pure
			// numbers.
			return dim{kind: dimScalar}
		}
	}
	if fu := ut.calleeUnits(fn); fu != nil && len(fu.results) == 1 {
		return fu.results[0]
	}
	return dim{}
}

// applyNode updates env with the bindings one CFG node performs
// (cfg.Inspect: function literals are analyzed separately, and a range
// statement binds only its per-iteration key and value here).
func (ut *unitTable) applyNode(n ast.Node, env dimEnv) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		ut.applyRange(rs, env)
	}
	cfg.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			ut.applyAssign(x, env)
		case *ast.ValueSpec:
			for i, name := range x.Names {
				obj := ut.pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				switch {
				case i < len(x.Values):
					env[obj] = ut.dimOf(x.Values[i], env)
				case len(x.Values) == 0 && isNumeric(obj.Type()):
					// Zero value: behaves like the literal 0.
					env[obj] = dim{kind: dimScalar}
				}
			}
		}
		return true
	})
}

func (ut *unitTable) applyRange(rs *ast.RangeStmt, env dimEnv) {
	bind := func(e ast.Expr, d dim) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := ut.pass.Info.Defs[id]
		if obj == nil {
			obj = ut.pass.Info.Uses[id]
		}
		if obj != nil {
			env[obj] = d
		}
	}
	if rs.Key != nil {
		bind(rs.Key, dim{kind: dimScalar}) // index / count
	}
	if rs.Value != nil {
		bind(rs.Value, ut.dimOf(rs.X, env)) // element carries the slice's dim
	}
}

func (ut *unitTable) applyAssign(a *ast.AssignStmt, env dimEnv) {
	set := func(lhs ast.Expr, d dim) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := ut.pass.Info.Defs[id]
		if obj == nil {
			obj = ut.pass.Info.Uses[id]
		}
		if obj == nil || ut.vars[obj].concrete() {
			return // package-level declarations keep their annotation
		}
		env[obj] = d
	}
	switch a.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(a.Lhs) == len(a.Rhs) {
			for i, lhs := range a.Lhs {
				set(lhs, ut.dimOf(a.Rhs[i], env))
			}
			return
		}
		// x, y := f(): spread the callee's declared result dims.
		if len(a.Rhs) == 1 {
			if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
				if fn := calleeFunc(ut.pass, call); fn != nil {
					if fu := ut.calleeUnits(fn); fu != nil {
						for i, lhs := range a.Lhs {
							if i < len(fu.results) {
								set(lhs, fu.results[i])
							} else {
								set(lhs, dim{})
							}
						}
						return
					}
				}
			}
			for _, lhs := range a.Lhs {
				set(lhs, dim{})
			}
		}
	case token.MUL_ASSIGN:
		if len(a.Lhs) == 1 {
			set(a.Lhs[0], dimMul(ut.dimOf(a.Lhs[0], env), ut.dimOf(a.Rhs[0], env)))
		}
	case token.QUO_ASSIGN:
		if len(a.Lhs) == 1 {
			set(a.Lhs[0], dimDiv(ut.dimOf(a.Lhs[0], env), ut.dimOf(a.Rhs[0], env)))
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(a.Lhs) == 1 {
			d, _ := dimAdd(ut.dimOf(a.Lhs[0], env), ut.dimOf(a.Rhs[0], env))
			set(a.Lhs[0], d)
		}
	}
}

// declaredTarget resolves the annotated dimension of a store target: an
// annotated package var or an annotated struct field.
func (ut *unitTable) declaredTarget(lhs ast.Expr) (dim, string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := ut.pass.Info.Uses[lhs]
		if obj == nil {
			return dim{}, "", false
		}
		if d, ok := ut.vars[obj]; ok && d.concrete() {
			return d, lhs.Name, true
		}
		if obj.Pkg() != nil && obj.Pkg() != ut.pass.Pkg {
			if d, ok := ut.importedVarDim(obj); ok && d.concrete() {
				return d, lhs.Name, true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := ut.pass.Info.Selections[lhs]; ok {
			if sel.Kind() == types.FieldVal {
				if field, _ := sel.Obj().(*types.Var); field != nil {
					if d, ok := ut.fieldDim(field, sel.Recv()); ok && d.concrete() {
						return d, types.ExprString(lhs), true
					}
				}
			}
			return dim{}, "", false
		}
		// Not a selection: a qualified identifier (pkg.Var).
		if obj := ut.pass.Info.Uses[lhs.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg() != ut.pass.Pkg {
			if d, ok := ut.importedVarDim(obj); ok && d.concrete() {
				return d, types.ExprString(lhs), true
			}
		}
	}
	return dim{}, "", false
}

// checkNode reports the unit violations one CFG node commits under env.
func (ut *unitTable) checkNode(n ast.Node, env dimEnv, fu *funcUnits) {
	cfg.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				dx, dy := ut.dimOf(x.X, env), ut.dimOf(x.Y, env)
				if _, ok := dimAdd(dx, dy); !ok {
					ut.pass.Reportf(x.OpPos, "unit mismatch: %s (%s) %s %s (%s)",
						types.ExprString(x.X), dx, x.Op, types.ExprString(x.Y), dy)
				}
				ut.checkMultiplier(x.X, dy)
				ut.checkMultiplier(x.Y, dx)
			}
		case *ast.AssignStmt:
			ut.checkAssign(x, env)
		case *ast.CallExpr:
			ut.checkCall(x, env)
		case *ast.ReturnStmt:
			ut.checkReturn(x, env, fu)
		case *ast.CompositeLit:
			ut.checkCompositeLit(x, env)
		}
		return true
	})
}

func (ut *unitTable) checkAssign(a *ast.AssignStmt, env dimEnv) {
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(a.Lhs) == 1 {
			dx, dy := ut.dimOf(a.Lhs[0], env), ut.dimOf(a.Rhs[0], env)
			if _, ok := dimAdd(dx, dy); !ok {
				ut.pass.Reportf(a.TokPos, "unit mismatch: %s (%s) %s %s (%s)",
					types.ExprString(a.Lhs[0]), dx, a.Tok, types.ExprString(a.Rhs[0]), dy)
			}
			ut.checkMultiplier(a.Rhs[0], dx)
		}
	case token.ASSIGN:
		if len(a.Lhs) != len(a.Rhs) {
			return
		}
		for i, lhs := range a.Lhs {
			want, name, ok := ut.declaredTarget(lhs)
			if !ok {
				continue
			}
			got := ut.dimOf(a.Rhs[i], env)
			if got.concrete() && got.exp != want.exp {
				ut.pass.Reportf(a.Rhs[i].Pos(), "cannot store %s value in %s (declared unit %s)", got, name, want)
			}
			ut.checkMultiplier(a.Rhs[i], want)
		}
	}
}

func (ut *unitTable) checkCall(call *ast.CallExpr, env dimEnv) {
	fn := calleeFunc(ut.pass, call)
	if fn == nil {
		return
	}
	fu := ut.calleeUnits(fn)
	if fu == nil || len(fu.params) == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if sig.Variadic() && i == sig.Params().Len()-1 {
			break
		}
		want, ok := fu.params[sig.Params().At(i).Name()]
		if !ok || !want.concrete() {
			continue
		}
		got := ut.dimOf(call.Args[i], env)
		if got.concrete() && got.exp != want.exp {
			ut.pass.Reportf(call.Args[i].Pos(), "argument %s to %s has unit %s, want %s",
				types.ExprString(call.Args[i]), qualifiedName(ut.pass, fn), got, want)
		}
		ut.checkMultiplier(call.Args[i], want)
	}
}

func (ut *unitTable) checkReturn(ret *ast.ReturnStmt, env dimEnv, fu *funcUnits) {
	if fu == nil || len(ret.Results) != len(fu.results) {
		return
	}
	for i, res := range ret.Results {
		want := fu.results[i]
		if !want.concrete() {
			continue
		}
		got := ut.dimOf(res, env)
		if got.concrete() && got.exp != want.exp {
			ut.pass.Reportf(res.Pos(), "return value has unit %s, want %s", got, want)
		}
		ut.checkMultiplier(res, want)
	}
}

func (ut *unitTable) checkCompositeLit(lit *ast.CompositeLit, env dimEnv) {
	t := ut.pass.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		want, ok := ut.fieldDimByName(named, key.Name)
		if !ok || !want.concrete() {
			continue
		}
		got := ut.dimOf(kv.Value, env)
		if got.concrete() && got.exp != want.exp {
			ut.pass.Reportf(kv.Value.Pos(), "cannot store %s value in field %s.%s (declared unit %s)",
				got, named.Obj().Name(), key.Name, want)
		}
		ut.checkMultiplier(kv.Value, want)
	}
}

// checkMultiplier reports a bare literal equal to a unit multiplier
// (1e-3, 1e6, ...) that is value itself or a factor of it, when value
// has dimension want and internal/units names that scale of want.
// internal/units, which defines the constants, may spell them.
func (ut *unitTable) checkMultiplier(value ast.Expr, want dim) {
	if !want.concrete() || strings.HasSuffix(ut.pass.Pkg.Path(), "internal/units") {
		return
	}
	switch e := ast.Unparen(value).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.MUL || e.Op == token.QUO {
			ut.checkMultiplier(e.X, want)
			ut.checkMultiplier(e.Y, want)
		}
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			ut.checkMultiplier(e.X, want)
		}
	case *ast.BasicLit:
		tv := ut.pass.Info.Types[e]
		if tv.Value == nil || (e.Kind != token.INT && e.Kind != token.FLOAT) {
			return
		}
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		if c, ok := unitConsts[want][v]; ok {
			ut.pass.Reportf(e.Pos(), "bare unit multiplier %s in a %s value; use %s", e.Value, want, c)
		}
	}
}

// checkFuncDims solves the dimension dataflow over one function body
// and replays it for position-ordered reporting.
func (ut *unitTable) checkFuncDims(body *ast.BlockStmt, fu *funcUnits) {
	g := cfg.New(body)
	entry := make(dimEnv)
	if fu != nil {
		for obj, d := range fu.paramObjs {
			entry[obj] = d
		}
	}
	res := cfg.Forward(g, cfg.Flow[dimEnv]{
		Entry: func() dimEnv { return copyDimEnv(entry) },
		Copy:  copyDimEnv,
		Join:  joinDimEnv,
		Transfer: func(b *cfg.Block, in dimEnv) dimEnv {
			out := copyDimEnv(in)
			for _, n := range b.Nodes {
				ut.applyNode(n, out)
			}
			return out
		},
	})
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		env := copyDimEnv(in)
		for _, n := range b.Nodes {
			ut.checkNode(n, env, fu)
			ut.applyNode(n, env)
		}
	}
}

func runDimCheck(pass *Pass) {
	ut := collectUnits(pass)
	if pass.FactsOnly {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var fu *funcUnits
			if obj, _ := pass.Info.Defs[fd.Name].(*types.Func); obj != nil {
				fu = ut.funcs[obj]
			}
			ut.checkFuncDims(fd.Body, fu)
			// Function literals run as independent functions: their
			// parameters cannot carry directives, but annotated fields,
			// vars and signatures still bind inside them.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					ut.checkFuncDims(lit.Body, nil)
				}
				return true
			})
		}
	}
}
