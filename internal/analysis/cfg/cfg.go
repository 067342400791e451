// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and provides a generic forward dataflow solver
// (solve.go). It is the substrate for the path-sensitive ecolint
// analyzers: locksafety's early-return lock-leak check and anything
// else that needs "on every path" / "on some path" reasoning rather
// than a flat AST walk.
//
// The graph is statement-level: each Block holds the statements (and
// branch-condition expressions) that execute unconditionally once the
// block is entered, in execution order. Every function has a single
// synthetic Exit block; each return statement and the fall-off-the-end
// path gets an edge to it. Calls that provably never return — panic,
// os.Exit, log.Fatal*, runtime.Goexit, (*testing.T).Fatal* — terminate
// their block with no successors, so "lock held at Exit" analyses do
// not misfire on crash paths. The never-returns set is matched
// syntactically (identifier / selector name), deliberately: the package
// depends only on go/ast and go/token so it can be reused before or
// without type checking.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// A Block is a maximal run of nodes with no internal control transfer.
type Block struct {
	// Index is the block's position in Graph.Blocks, stable across runs
	// for a given function body.
	Index int
	// Nodes holds the statements and control expressions of the block in
	// execution order. Branch conditions (if/for conditions, switch tags,
	// range expressions) appear as their ast.Expr / ast.Stmt node.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first. It is never nil.
	Entry *Block
	// Exit is the synthetic sink for all returning paths: every return
	// statement and the fall-off-the-end path has an edge to it. Blocks
	// that end in a never-returning call have no successors at all.
	Exit *Block
	// Blocks lists every block, Entry first, Exit second.
	Blocks []*Block
}

// neverReturns are callee names (identifier or selector suffix) whose
// call terminates control flow. Matched syntactically.
var neverReturns = map[string]bool{
	"panic":   true, // builtin
	"Exit":    true, // os.Exit
	"Goexit":  true, // runtime.Goexit
	"Fatal":   true, // log.Fatal, (*testing.T).Fatal
	"Fatalf":  true, // log.Fatalf, (*testing.T).Fatalf
	"Fatalln": true, // log.Fatalln
	"FailNow": true, // (*testing.T).FailNow
	"SkipNow": true, // (*testing.T).SkipNow
	"Skip":    true, // (*testing.T).Skip
	"Skipf":   true, // (*testing.T).Skipf
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, gotos: make(map[string]*Block)}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.jump(g.Exit) // fall off the end
	return g
}

// builder carries the under-construction graph and the lexical
// break/continue/fallthrough context.
type builder struct {
	g   *Graph
	cur *Block // nil after a terminator; revived lazily for dead code

	// breaks and continues are stacks of enclosing targets; an empty
	// label matches the innermost frame.
	breaks    []branchTarget
	continues []branchTarget
	// fallthroughTo is the body block of the next case clause while a
	// switch case body is being built.
	fallthroughTo *Block
	// gotos maps label name -> its (possibly forward-declared) block.
	gotos map[string]*Block
	// pendingLabel is the label attached to the next loop/switch/select
	// statement, consumed when its break/continue frames are pushed.
	pendingLabel string
}

type branchTarget struct {
	label  string
	target *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends a node to the current block, starting an unreachable
// fresh block if the previous statement terminated control flow.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// connect adds an edge from src to dst; nil src (terminated path) is a
// no-op.
func (b *builder) connect(src, dst *Block) {
	if src == nil {
		return
	}
	src.Succs = append(src.Succs, dst)
}

// jump ends the current block with an edge to target.
func (b *builder) jump(target *Block) {
	b.connect(b.cur, target)
	b.cur = nil
}

// startBlock makes a fresh block the current one without connecting it.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	b.cur = blk
	return blk
}

// labelBlock returns (creating on demand) the block a goto/label name
// resolves to.
func (b *builder) labelBlock(name string) *Block {
	blk, ok := b.gotos[name]
	if !ok {
		blk = b.newBlock()
		b.gotos[name] = blk
	}
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a breakable construct.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) popBreak()    { b.breaks = b.breaks[:len(b.breaks)-1] }
func (b *builder) popContinue() { b.continues = b.continues[:len(b.continues)-1] }

func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].target
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label's block is a join point so that goto can target it
		// from anywhere in the function.
		blk := b.labelBlock(s.Label.Name)
		b.jump(blk)
		b.cur = blk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		done := b.newBlock()
		b.startBlock()
		b.connect(cond, b.cur)
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.startBlock()
			b.connect(cond, b.cur)
			b.stmt(s.Else)
			b.jump(done)
		} else {
			b.connect(cond, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head = b.cur // add may have revived a dead block
		done := b.newBlock()
		if s.Cond != nil {
			b.connect(head, done)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.breaks = append(b.breaks, branchTarget{label, done})
		b.continues = append(b.continues, branchTarget{label, post})
		body := b.startBlock()
		b.connect(head, body)
		b.stmt(s.Body)
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.jump(head)
		}
		b.popBreak()
		b.popContinue()
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.add(s) // the range expression + per-iteration assignment
		b.jump(head)
		done := b.newBlock()
		b.connect(head, done) // range may be empty / exhausted
		b.breaks = append(b.breaks, branchTarget{label, done})
		b.continues = append(b.continues, branchTarget{label, head})
		body := b.startBlock()
		b.connect(head, body)
		b.stmt(s.Body)
		b.jump(head)
		b.popBreak()
		b.popContinue()
		b.cur = done

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		if sel == nil {
			sel = b.newBlock()
			b.cur = sel
		}
		done := b.newBlock()
		b.breaks = append(b.breaks, branchTarget{label, done})
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.startBlock()
			b.connect(sel, blk)
			if clause.Comm != nil {
				b.add(clause.Comm)
			}
			b.stmtList(clause.Body)
			b.jump(done)
		}
		b.popBreak()
		b.cur = done

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && callNeverReturns(call) {
			b.cur = nil
		}

	default:
		// Plain statements: declarations, assignments, sends, inc/dec,
		// defer, go. None transfer control.
		b.add(s)
	}
}

// switchStmt builds expression and type switches; exactly one of tag /
// assign is non-nil (both may be nil for a bare switch).
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	done := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, done})

	// Pre-create case body blocks so fallthrough can target the next one.
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	blocks := make([]*Block, 0, len(body.List))
	for _, cc := range body.List {
		clauses = append(clauses, cc.(*ast.CaseClause))
		blocks = append(blocks, b.newBlock())
	}
	// An expression switch evaluates its case expressions clause by
	// clause until one matches, so each clause's test is a block on the
	// chain from head, and only the last test falls through to default.
	// A type switch's cases are types: nothing runs, and head branches
	// to every clause at once.
	test, noMatch := head, done
	for i, clause := range clauses {
		if clause.List == nil {
			noMatch = blocks[i]
			continue
		}
		if assign == nil {
			b.cur = b.newBlock()
			b.connect(test, b.cur)
			for _, e := range clause.List {
				b.add(e)
			}
			test = b.cur
		}
		b.connect(test, blocks[i])
	}
	b.connect(test, noMatch)
	for i, clause := range clauses {
		b.cur = blocks[i]
		savedFT := b.fallthroughTo
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = done
		}
		b.stmtList(clause.Body)
		b.fallthroughTo = savedFT
		b.jump(done)
	}
	b.popBreak()
	b.cur = done
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := findTarget(b.breaks, label); t != nil {
			b.jump(t)
			return
		}
	case "continue":
		if t := findTarget(b.continues, label); t != nil {
			b.jump(t)
			return
		}
	case "goto":
		if s.Label != nil {
			b.jump(b.labelBlock(s.Label.Name))
			return
		}
	case "fallthrough":
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			return
		}
	}
	// Malformed branch (e.g. break outside a loop in a fixture): drop
	// the edge rather than panic.
	b.add(s)
	b.cur = nil
}

// callNeverReturns reports whether the call's callee name is in the
// never-returns set (panic, os.Exit, log.Fatal*, t.Fatal*...).
func callNeverReturns(call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return neverReturns[fn.Name]
	case *ast.SelectorExpr:
		return neverReturns[fn.Sel.Name]
	}
	return false
}

// Inspect walks node n of a block like ast.Inspect, but only through
// what runs when the block does: function literal bodies are not entered
// (they run later, if at all), and a range statement yields only its
// header — Key, Value and X — since its body's statements sit in blocks
// of their own.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil {
				Inspect(e, f)
			}
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, lit := x.(*ast.FuncLit); lit {
			return false
		}
		return f(x)
	})
}

// Reachable returns the set of blocks reachable from Entry, in a
// deterministic preorder.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var order []*Block
	var visit func(*Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		order = append(order, b)
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
	return order
}

// String renders the graph compactly for tests and debugging:
// one "bN[: nodes] -> succs" line per reachable block.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Reachable() {
		fmt.Fprintf(&sb, "b%d", b.Index)
		if len(b.Nodes) > 0 {
			sb.WriteString(":")
			for _, n := range b.Nodes {
				fmt.Fprintf(&sb, " %s", nodeLabel(n))
			}
		}
		sb.WriteString(" ->")
		if len(b.Succs) == 0 {
			sb.WriteString(" halt")
		}
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func nodeLabel(n ast.Node) string {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		return "return"
	case *ast.RangeStmt:
		return "range"
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			switch fn := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fn.Name + "()"
			case *ast.SelectorExpr:
				return fn.Sel.Name + "()"
			}
		}
		return "expr"
	case *ast.AssignStmt:
		return "assign"
	case *ast.DeferStmt:
		return "defer"
	case *ast.Ident:
		return n.Name
	case *ast.BasicLit:
		return n.Value
	case *ast.BinaryExpr, *ast.UnaryExpr, *ast.CallExpr:
		return "cond"
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.BranchStmt:
		return n.Tok.String()
	case *ast.TypeSwitchStmt:
		return "typeswitch"
	}
	return fmt.Sprintf("%T", n)
}
