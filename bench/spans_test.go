package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "leaf", ID: 2, Parent: 1, Start: 15, End: 20},
		{Name: "b", ID: 3, Parent: 0, Start: 30, End: 60},  // overlaps a: the overlap counts once
		{Name: "c", ID: 4, Parent: 0, Start: 90, End: 120}, // sticks out of root: clipped
		{Name: "other", ID: 5, Parent: -1, Start: 200, End: 230},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 5, 30, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderLayersByNameAndTag(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", -1, 7)
	for _, tag := range []string{"lru", "karma", "lru"} {
		s := r.begin("sim.run", root, 7)
		r.tag(s, tag)
		time.Sleep(time.Millisecond)
		r.end(s)
	}
	r.end(root)
	layers := r.layers()
	if layers["sim.run"].calls != 3 || layers["sim.run.lru"].calls != 2 || layers["sim.run.karma"].calls != 1 {
		t.Fatalf("layer calls = %+v", layers)
	}
	if sum := layers["sim.run.lru"].self + layers["sim.run.karma"].self; sum != layers["sim.run"].self {
		t.Errorf("tagged self times sum to %v, untagged %v", sum, layers["sim.run"].self)
	}
	if self, whole := layers["op"].self, r.duration(root); self >= whole-3*time.Millisecond {
		t.Errorf("root self %v not reduced by its children (duration %v)", self, whole)
	}
	if got := r.selfSince(1, "sim.run"); got != layers["sim.run"].self {
		t.Errorf("selfSince = %v, want %v", got, layers["sim.run"].self)
	}

	var buf bytes.Buffer
	if err := r.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var n int
	for ; dec.More(); n++ {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.Req != 7 || s.End < s.Start || (s.ID != 0 && s.Parent != 0) {
			t.Errorf("span line %d = %+v", n, s)
		}
	}
	if n != 4 {
		t.Errorf("%d span lines, want 4", n)
	}
}

func TestNilRecorderIsANoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.tag(id, "t")
	r.end(id)
	if id != -1 || r.duration(id) != 0 || len(r.layers()) != 0 {
		t.Fatalf("nil recorder recorded something")
	}
}
