package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
		{Name: "d", Parent: 1, Start: 15, End: 20},  // grandchild: a's, not op's
	}
	got := selfTimes(spans)
	// op: 100 - ([10,50) + [90,100)) = 100 - 50.
	want := []int64{50, 25, 20, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeNestedAndDisjoint(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 10},
		{Name: "x", Parent: 0, Start: 2, End: 4},
		{Name: "y", Parent: 0, Start: 3, End: 3}, // empty
		{Name: "z", Parent: 0, Start: 6, End: 9},
		{Name: "w", Parent: 0, Start: 7, End: 8}, // inside z
	}
	if got := selfTimes(spans)[0]; got != 5 {
		t.Errorf("op self = %d, want 5", got)
	}
	if got := selfTimes(spans[:1])[0]; got != 10 {
		t.Errorf("leaf self = %d, want its duration", got)
	}
}

func TestTracerBuildsOpTrees(t *testing.T) {
	ts := newTraceSet()
	tr := ts.worker()
	for i := 0; i < 3; i++ {
		op := tr.begin("op.put")
		tx := tr.begin("core.tx")
		set := tr.begin("core.tx_set")
		time.Sleep(time.Millisecond)
		tr.end(set)
		tr.end(tx)
		tr.end(op)
	}
	if got := ts.current(); got != tr {
		t.Fatal("current() does not find the worker's tracer on its goroutine")
	}
	done := make(chan *tracer)
	go func() { done <- ts.current() }()
	if other := <-done; other != nil {
		t.Fatal("another goroutine found a tracer it never registered")
	}
	tot := ts.totals()
	for _, name := range []string{"op.put", "core.tx", "core.tx_set"} {
		if tot[name] == nil || tot[name].N != 3 {
			t.Fatalf("%s: aggregate %+v, want 3 spans", name, tot[name])
		}
	}
	if set := tot["core.tx_set"]; set.Self != set.Total {
		t.Errorf("a leaf's self time %d differs from its duration %d", set.Self, set.Total)
	}
	if tx := tot["core.tx"]; tx.Self >= tot["core.tx_set"].Total {
		t.Errorf("core.tx self %d not reduced by its child", tx.Self)
	}
	ops := map[uint64]int{}
	for _, s := range tr.kept {
		ops[s.Op]++
	}
	if len(ops) != 3 {
		t.Fatalf("spans carry %d op IDs, want 3", len(ops))
	}
	for id, n := range ops {
		if n != 3 {
			t.Errorf("op %d has %d spans, want 3", id, n)
		}
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var ts *traceSet
	tr := ts.worker()
	sp := tr.begin("op")
	tr.end(sp)
	if ts.current() != nil || len(ts.totals()) != 0 {
		t.Error("a nil trace set recorded something")
	}
}
