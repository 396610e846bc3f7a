package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// latChunk is the number of samples per allocation of a lat.
const latChunk = 1 << 16

// lat collects one latency sample per operation, in nanoseconds
// (saturating at ~4.3 s, far above any single op here). Exact samples
// rather than a bucketed histogram: percentiles then move with every
// run instead of snapping to bucket edges. Samples fill fixed-size
// chunks, so recording one never copies the ones before it.
type lat struct{ chunks [][]uint32 }

// newChunk returns room for latChunk samples outside the Go heap. A
// run keeps every round's samples until it reports; on the heap they
// would add to each later round's live heap and shift where the
// collector runs in it, so rounds of the same work would differ.
func newChunk() []uint32 {
	b, err := syscall.Mmap(-1, 0, latChunk*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping latency samples: " + err.Error())
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), latChunk)[:0]
}

func (l *lat) add(d time.Duration) {
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == latChunk {
		l.chunks = append(l.chunks, newChunk())
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], uint32(ns))
}

func (l lat) len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// merge pools sample sets.
func merge(ls ...lat) lat {
	var out lat
	for _, l := range ls {
		out.chunks = append(out.chunks, l.chunks...)
	}
	return out
}

// sorted returns every sample in ascending order.
func (l lat) sorted() []uint32 {
	out := make([]uint32, 0, l.len())
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of ascending samples: the smallest sample with at least p% of all
// samples at or below it. An empty set yields 0.
func percentile(samples []uint32, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return float64(samples[rank-1])
}

// median of a small set of per-round figures.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqm is the interquartile mean: the mean of xs without its lowest and
// highest quarter (floor(n/4) values each). It stands as firm as a
// median against a few disturbed values, and unlike a median it moves
// smoothly when the values fall into two groups whose shares vary.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// liveHeap forces a collection and returns the live Go heap in bytes.
// Latency samples are not in it (newChunk).
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
