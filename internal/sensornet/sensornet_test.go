package sensornet

import (
	"testing"
)

func TestPuddlesAggregationSmall(t *testing.T) {
	const nodes, vars = 4, 50
	home, err := NewNode("home")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := home.BuildState(vars)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Distribute(pool)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		sn, err := NewNode("sensor")
		if err != nil {
			t.Fatal(err)
		}
		uploads[i], err = sn.SensorWork(blob, 100+int64(i))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	sums, bd, err := home.AggregatePuddles(uploads)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedSums(nodes, vars, 100)
	if len(sums) != vars {
		t.Fatalf("aggregated %d vars, want %d", len(sums), vars)
	}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("var %d: sum = %d, want %d", i, sums[i], want[i])
		}
	}
	if bd.Total <= 0 {
		t.Fatal("no time measured")
	}
	// Every upload is relocated (home already holds the original
	// addresses), so each list node's pointer is rewritten once.
	if bd.Ptrs != nodes*vars {
		t.Fatalf("pointers rewritten = %d, want %d uploads x %d vars", bd.Ptrs, nodes, vars)
	}
}

func TestPMDKAggregationSmall(t *testing.T) {
	const nodes, vars = 4, 50
	nw, err := NewPMDKNetwork(vars)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		uploads[i], err = nw.SensorWorkPMDK(i, 100+int64(i))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	sums, dur, err := nw.AggregatePMDK(uploads)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedSums(nodes, vars, 100)
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("var %d: sum = %d, want %d", i, sums[i], want[i])
		}
	}
	if dur <= 0 {
		t.Fatal("no time measured")
	}
}

func TestBothPathsAgree(t *testing.T) {
	// The two implementations of the same aggregation must produce
	// identical results — the cross-check behind Fig. 14.
	const nodes, vars = 3, 30
	home, err := NewNode("home")
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := home.BuildState(vars)
	blob, _ := Distribute(pool)
	puddleUploads := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		sn, _ := NewNode("s")
		puddleUploads[i], err = sn.SensorWork(blob, 7+int64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	pSums, _, err := home.AggregatePuddles(puddleUploads)
	if err != nil {
		t.Fatal(err)
	}

	nw, err := NewPMDKNetwork(vars)
	if err != nil {
		t.Fatal(err)
	}
	pmdkUploads := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		pmdkUploads[i], err = nw.SensorWorkPMDK(i, 7+int64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	kSums, _, err := nw.AggregatePMDK(pmdkUploads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pSums {
		if pSums[i] != kSums[i] {
			t.Fatalf("var %d: puddles=%d pmdk=%d", i, pSums[i], kSums[i])
		}
	}
}
