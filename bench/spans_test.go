package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func totalsByName(spans []Span) map[string]SpanTotals {
	out := map[string]SpanTotals{}
	for _, t := range selfTimes(spans) {
		out[t.Name] = t
	}
	return out
}

// Self time is a span's duration minus the part of it its children
// cover: overlapping children count once, children are clipped to the
// parent, grandchildren belong to their own parent.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs 20 past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},  // grandchild: b's, not op's
		{ID: 6, Parent: 1, Name: "open", Start: 60, End: -1},
	}
	got := totalsByName(spans)
	// op: children cover [10,50) and [90,100) = 50 of its 100.
	if g := got["op"]; g.Calls != 1 || g.TotalNS != 100 || g.SelfNS != 50 {
		t.Errorf("op = %+v, want 1 call, total 100, self 50", g)
	}
	if g := got["a"]; g.TotalNS != 20 || g.SelfNS != 20 {
		t.Errorf("a = %+v, want total 20, self 20", g)
	}
	// b: two calls, 30 + 30; the first holds c for 20.
	if g := got["b"]; g.Calls != 2 || g.TotalNS != 60 || g.SelfNS != 40 {
		t.Errorf("b = %+v, want 2 calls, total 60, self 40", g)
	}
	if _, ok := got["open"]; ok {
		t.Error("a span that never closed was counted")
	}
}

func TestRecorderNilIsTracingOff(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0, 0)
	r.End(id)
	r.Count("n", 1)
	if id != 0 {
		t.Errorf("nil recorder handed out span id %d", id)
	}
}

func TestRecorderWritesSpansSharingAnOp(t *testing.T) {
	r := NewRecorder()
	root := r.Start("op", 0, 7)
	child := r.Start("layer.call", root, 7)
	r.End(child)
	r.End(root)
	r.Count("packets", 3)
	r.Count("packets", 2)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path, "w", Box{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 || tf.Spans[1].Parent != tf.Spans[0].ID || tf.Spans[0].Op != 7 || tf.Spans[1].Op != 7 {
		t.Errorf("spans = %+v", tf.Spans)
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %q not closed: %+v", s.Name, s)
		}
	}
	if tf.Counts["packets"] != 5 || len(tf.Totals) != 2 {
		t.Errorf("counts %v, totals %v", tf.Counts, tf.Totals)
	}
}
