package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a single function declaration.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestGraphShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{
			name: "straightline",
			body: "x := 1\n_ = x",
			want: "b0: assign assign -> b1\nb1 -> halt\n",
		},
		{
			name: "if-early-return",
			body: "x := 1\nif x > 0 {\nreturn\n}\n_ = x",
			want: "b0: assign cond -> b3 b2\nb3: return -> b1\nb1 -> halt\nb2: assign -> b1\n",
		},
		{
			name: "if-else",
			body: "if c() {\na()\n} else {\nb()\n}\nd()",
			want: "b0: cond -> b3 b4\nb3: a() -> b2\nb2: d() -> b1\nb1 -> halt\nb4: b() -> b2\n",
		},
		{
			name: "for-cond",
			body: "for i := 0; i < 3; i++ {\na()\n}\nb()",
			want: "b0: assign -> b2\nb2: cond -> b3 b5\nb3: b() -> b1\nb1 -> halt\nb5: a() -> b4\nb4: incdec -> b2\n",
		},
		{
			name: "for-break-continue",
			body: "for {\nif c() {\nbreak\n}\nif d() {\ncontinue\n}\na()\n}\nb()",
			want: "b0 -> b2\nb2 -> b4\nb4: cond -> b6 b5\nb6 -> b3\nb3: b() -> b1\nb1 -> halt\nb5: cond -> b8 b7\nb8 -> b2\nb7: a() -> b2\n",
		},
		{
			name: "range-map",
			body: "m := map[int]int{}\nfor k := range m {\n_ = k\n}\na()",
			want: "b0: assign range -> b2\nb2 -> b3 b4\nb3: a() -> b1\nb1 -> halt\nb4: assign -> b2\n",
		},
		{
			name: "switch-fallthrough",
			body: "switch x() {\ncase 1:\na()\nfallthrough\ncase 2:\nb()\ndefault:\nc()\n}\nd()",
			want: "b0: cond -> b6\nb6: 1 -> b3 b7\nb3: a() -> b4\nb4: b() -> b2\nb2: d() -> b1\nb1 -> halt\nb7: 2 -> b4 b5\nb5: c() -> b2\n",
		},
		{
			name: "switch-default-first",
			body: "switch {\ndefault:\na()\ncase c(), d():\nb()\n}",
			want: "b0 -> b5\nb5: cond cond -> b4 b3\nb4: b() -> b2\nb2 -> b1\nb1 -> halt\nb3: a() -> b2\n",
		},
		{
			name: "typeswitch-cases-unevaluated",
			body: "switch v := x().(type) {\ndefault:\na(v)\ncase int:\nb()\n}",
			want: "b0: assign -> b4 b3\nb4: b() -> b2\nb2 -> b1\nb1 -> halt\nb3: a() -> b2\n",
		},
		{
			name: "panic-terminates",
			body: "if c() {\npanic(\"no\")\n}\na()",
			want: "b0: cond -> b3 b2\nb3: panic() -> halt\nb2: a() -> b1\nb1 -> halt\n",
		},
		{
			name: "goto",
			body: "a()\ngoto L\nb()\nL:\nc()",
			want: "b0: a() -> b2\nb2: c() -> b1\nb1 -> halt\n",
		},
		{
			name: "select",
			body: "select {\ncase <-ch():\na()\ndefault:\nb()\n}\nc()",
			want: "b0 -> b3 b4\nb3: expr a() -> b2\nb2: c() -> b1\nb1 -> halt\nb4: b() -> b2\n",
		},
		{
			name: "labeled-break",
			body: "L:\nfor {\nfor {\nbreak L\n}\n}\na()",
			want: "b0 -> b2\nb2 -> b3\nb3 -> b5\nb5 -> b6\nb6 -> b8\nb8 -> b4\nb4: a() -> b1\nb1 -> halt\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := New(parseBody(t, c.body))
			if got := g.String(); got != c.want {
				t.Errorf("graph mismatch\n got:\n%s want:\n%s", got, c.want)
			}
		})
	}
}

// TestForwardReachingCalls checks the solver on a simple gen-only
// problem: which call names can have executed by each block's exit.
func TestForwardReachingCalls(t *testing.T) {
	body := `
a()
if c() {
	b()
	return
}
d()`
	g := New(parseBody(t, body))
	flow := Flow[map[string]bool]{
		Entry: func() map[string]bool { return map[string]bool{} },
		Copy: func(m map[string]bool) map[string]bool {
			out := make(map[string]bool, len(m))
			for k := range m {
				out[k] = true
			}
			return out
		},
		Join: func(dst, src map[string]bool) (map[string]bool, bool) {
			changed := false
			for k := range src {
				if !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return dst, changed
		},
		Transfer: func(b *Block, in map[string]bool) map[string]bool {
			out := make(map[string]bool, len(in))
			for k := range in {
				out[k] = true
			}
			for _, n := range b.Nodes {
				ast.Inspect(n, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok {
							out[id.Name] = true
						}
					}
					return true
				})
			}
			return out
		},
	}
	res := Forward(g, flow)
	atExit := res.In[g.Exit]
	keys := make([]string, 0, len(atExit))
	for k := range atExit {
		keys = append(keys, k)
	}
	// The exit joins the early-return path {a,c,b} and the fall-through
	// path {a,c,d}: the union must contain all four calls.
	for _, want := range []string{"a", "b", "c", "d"} {
		if !atExit[want] {
			t.Errorf("call %q not reaching exit; got %v", want, keys)
		}
	}
	// And on the early-return path specifically, d must NOT have run.
	var returnBlock *Block
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returnBlock = b
			}
		}
	}
	if returnBlock == nil {
		t.Fatal("no return block found")
	}
	if out := res.Out[returnBlock]; out["d"] || !out["b"] {
		t.Errorf("early-return path saw wrong calls: %v", out)
	}
}

func TestUnreachableNotVisited(t *testing.T) {
	g := New(parseBody(t, "return\na()"))
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if s := nodeLabel(n); s == "a()" {
				t.Errorf("dead code after return should be unreachable, found %s", s)
			}
		}
	}
	if !strings.Contains(g.String(), "return") {
		t.Errorf("return missing from graph:\n%s", g.String())
	}
}

func TestExitHasNoSuccessors(t *testing.T) {
	g := New(parseBody(t, "if c() {\nreturn\n}"))
	if len(g.Exit.Succs) != 0 {
		t.Errorf("exit block must be a sink, has succs %v", g.Exit.Succs)
	}
	if fmt.Sprintf("b%d", g.Exit.Index) != "b1" {
		t.Errorf("exit should be the second block, got b%d", g.Exit.Index)
	}
}
