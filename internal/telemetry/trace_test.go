package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// buildTrace records one small deterministic tree.
func buildTrace(seed int64) *Tracer {
	tr := NewTracer(seed)
	root := tr.Start("round").Attr("q", 2)
	slot := root.Child("slot").Attr("cmd", "query")
	slot.Child("pie_downlink").Attr("delivered", true).End()
	slot.Child("fm0_uplink").Attr("delivered", true).End()
	slot.Attr("outcome", "single")
	slot.End()
	root.End()
	return tr
}

// TestTracerDeterministicIDs pins that the same seed and span order
// reproduce the same tree byte for byte, and that a different seed changes
// the IDs but not the structure.
func TestTracerDeterministicIDs(t *testing.T) {
	a, b := buildTrace(42).Tree(), buildTrace(42).Tree()
	if a != b {
		t.Errorf("same seed, different trees\n--- a\n%s--- b\n%s", a, b)
	}
	c := buildTrace(43).Tree()
	if a == c {
		t.Error("different seeds must draw different span IDs")
	}
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.IndexByte(line, '['); i >= 0 {
				line = line[:i] + line[i+10:] // drop "[xxxxxxxx]"
			}
			if i := strings.Index(line, "trace="); i >= 0 {
				line = line[:i] + line[i+len("trace=")+16:] // drop the trace ID
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	if strip(a) != strip(c) {
		t.Errorf("seed must only change IDs\n--- a\n%s--- c\n%s", strip(a), strip(c))
	}
}

// TestTracerTreeShape pins nesting, attribute order and the UNFINISHED
// marker.
func TestTracerTreeShape(t *testing.T) {
	tr := NewTracer(1)
	root := tr.Start("read").Attr("handle", "0x10")
	root.Child("attempt").Attr("n", 1).End()
	// root deliberately left un-Ended.
	got := tr.Tree()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree has %d lines, want 2:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "read [") || !strings.Contains(lines[0], "handle=0x10") {
		t.Errorf("root line malformed: %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], "UNFINISHED") {
		t.Errorf("unended root must be marked UNFINISHED: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  attempt [") || !strings.HasSuffix(lines[1], "n=1") {
		t.Errorf("child line malformed: %q", lines[1])
	}
}

// TestTracerRemoteParent pins the cross-process stitching contract: a
// StartRemote root joins the parent's trace, renders the remote parent as
// remote_parent=<trace>/<span>, and its children inherit the trace ID.
func TestTracerRemoteParent(t *testing.T) {
	server := NewTracer(42)
	broadcast := server.Start("broadcast")
	ctx := broadcast.Context()
	broadcast.End()

	client := NewTracer(99)
	receipt := client.StartRemote("receipt", ctx).Attr("type", "status")
	kid := receipt.Child("decode")
	kid.End()
	receipt.End()

	if got := receipt.Context().TraceID; got != ctx.TraceID {
		t.Errorf("remote root trace %016x, want parent trace %016x", got, ctx.TraceID)
	}
	if kid.Context().TraceID != ctx.TraceID {
		t.Error("child of a remote root must inherit the remote trace ID")
	}
	tree := client.Tree()
	want := fmt.Sprintf("remote_parent=%016x/%08x", ctx.TraceID, ctx.SpanID)
	if !strings.Contains(tree, want) {
		t.Errorf("tree %q does not name the remote parent %q", tree, want)
	}
	if strings.Contains(tree, "trace=") {
		t.Errorf("remote root must render remote_parent, not trace=: %q", tree)
	}
}

// TestTracerLocalRootsCarryDistinctTraces pins that every Start draws a
// fresh trace ID and renders it on the root line.
func TestTracerLocalRootsCarryDistinctTraces(t *testing.T) {
	tr := NewTracer(5)
	a, b := tr.Start("a"), tr.Start("b")
	a.End()
	b.End()
	if a.Context().TraceID == b.Context().TraceID {
		t.Error("sibling roots must not share a trace ID")
	}
	for _, line := range strings.Split(strings.TrimRight(tr.Tree(), "\n"), "\n") {
		if !strings.Contains(line, "trace=") {
			t.Errorf("root line missing trace ID: %q", line)
		}
	}
}

// TestKeyedSpanIDsIndependentOfCreationOrder: siblings with different keys
// get the same IDs and render in the same order whichever order (or
// goroutines) created them; unkeyed siblings stay where they were created,
// and one key's spans keep their creation order.
func TestKeyedSpanIDsIndependentOfCreationOrder(t *testing.T) {
	build := func(order []uint64, concurrent bool) string {
		tr := NewTracer(42)
		root := tr.Start("survey")
		root.Child("charge").End()
		read := func(key uint64) {
			for _, sensor := range []string{"temp", "strain"} {
				sp := root.ChildKeyed("read", key).Attr("key", key).Attr("sensor", sensor)
				sp.Child("attempt").End()
				sp.End()
			}
		}
		done := make(chan struct{}, len(order))
		for _, key := range order {
			if !concurrent {
				read(key)
				continue
			}
			go func(key uint64) {
				read(key)
				done <- struct{}{}
			}(key)
		}
		if concurrent {
			for range order {
				<-done
			}
		}
		root.Child("broadcast").End()
		root.End()
		return tr.Tree()
	}
	want := build([]uint64{1, 2, 3, 4}, false)
	for _, c := range []struct {
		order      []uint64
		concurrent bool
	}{
		{[]uint64{4, 3, 2, 1}, false},
		{[]uint64{2, 4, 1, 3}, false},
		{[]uint64{1, 2, 3, 4}, true},
		{[]uint64{3, 1, 4, 2}, true},
	} {
		if got := build(c.order, c.concurrent); got != want {
			t.Errorf("order %v (concurrent=%v) changed the tree:\n--- got\n%s--- want\n%s", c.order, c.concurrent, got, want)
		}
	}
	// The survey's children, IDs stripped: charge, reads by key, broadcast.
	var kids []string
	for _, line := range strings.Split(want, "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "    ") {
			f := strings.Fields(line)
			kids = append(kids, strings.Join(append(f[:1:1], f[2:]...), " "))
		}
	}
	wantKids := []string{"charge"}
	for key := 1; key <= 4; key++ {
		wantKids = append(wantKids, fmt.Sprintf("read key=%d sensor=temp", key), fmt.Sprintf("read key=%d sensor=strain", key))
	}
	wantKids = append(wantKids, "broadcast")
	if strings.Join(kids, "\n") != strings.Join(wantKids, "\n") {
		t.Errorf("render order:\n%s\nwant:\n%s", strings.Join(kids, "\n"), strings.Join(wantKids, "\n"))
	}
}
