package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var l lat
	for i := 100; i >= 1; i-- { // 1..100 ns, added out of order
		l.add(time.Duration(i))
	}
	s := l.sorted()
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 50},   // 50 of 100 samples are <= 50
		{99, 99},   // the 99th smallest
		{95, 95},   // the 95th smallest
		{100, 100}, // the largest
		{0.5, 1},   // a rank below 1 clamps to the smallest
		{50.5, 51}, // ranks round up
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSmallSets(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty set: got %g, want 0", got)
	}
	if got := percentile([]uint32{7}, 1); got != 7 {
		t.Errorf("one sample: got %g, want 7", got)
	}
	// Ten samples: p99 needs rank ceil(9.9) = 10, the largest.
	s := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	if got := percentile(s, 99); got != 1000 {
		t.Errorf("p99 of ten: got %g, want 1000", got)
	}
	if got := percentile(s, 90); got != 9 {
		t.Errorf("p90 of ten: got %g, want 9", got)
	}
}

func TestLatChunksAndMerge(t *testing.T) {
	var a, b lat
	for i := 0; i < latChunk+5; i++ {
		a.add(time.Duration(i % 1000))
	}
	b.add(time.Hour) // saturates at the largest uint32
	m := merge(a, b)
	if got, want := m.len(), latChunk+6; got != want {
		t.Fatalf("merged %d samples, want %d", got, want)
	}
	s := m.sorted()
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted at %d: %d > %d", i, s[i-1], s[i])
		}
	}
	if s[len(s)-1] != ^uint32(0) {
		t.Errorf("an hour recorded as %d ns, want saturation", s[len(s)-1])
	}
	if got := len(a.chunks); got != 2 {
		t.Errorf("%d samples in %d chunks, want 2", latChunk+5, got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %g", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestWindowPercentile(t *testing.T) {
	win := func(lo, n int) segment {
		var s segment
		for i := 0; i < n; i++ {
			s.reads.add(time.Duration(lo + i))
		}
		return s
	}
	reads := func(s segment) lat { return s.reads }
	// Five windows of 100 samples: p50 of each is lo+49; the
	// interquartile mean drops the lowest and the highest and averages
	// 1049, 4049 and 5049.
	wins := []segment{win(0, 100), win(1000, 100), win(4000, 100), win(5000, 100), win(90000, 100)}
	if got, want := windowPercentile(wins, reads, 50), (1049+4049+5049)/3.0; got != want {
		t.Errorf("windowed p50 = %g, want %g", got, want)
	}
	// p95 needs 200 samples per window, so the 500 samples are pooled:
	// rank 475 falls in the last window, at 90000+74.
	if got := windowPercentile(wins, reads, 95); got != 90074 {
		t.Errorf("pooled p95 = %g, want 90074", got)
	}
}

func TestIQM(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},         // under four values nothing is dropped
		{[]float64{10, 1, 3, 2}, 2.5},   // drops 1 and 10
		{[]float64{100, 4, 1, 3, 2}, 3}, // drops 1 and 100
	} {
		if got := iqm(c.in); got != c.want {
			t.Errorf("iqm(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2, 0}
	iqm(in)
	if in[0] != 3 || in[3] != 0 {
		t.Error("iqm reordered its input")
	}
}
