package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`     // shared by every span of one operation
	Parent int32  `json:"parent"` // index within the op's spans; -1 for the root
	Start  int64  `json:"start"`  // ns since the run's trace epoch
	End    int64  `json:"end"`
}

// selfTimes returns, for each span of one operation, its duration minus
// the part of it covered by the union of its children's intervals
// (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs []span) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		s, e := iv.Start, iv.End
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	N     int64
	Total int64 // summed duration, ns
	Self  int64 // summed self time, ns
}

func (a *spanAgg) meanUs() float64     { return ratio(float64(a.Total), float64(a.N)) / 1e3 }
func (a *spanAgg) meanSelfUs() float64 { return ratio(float64(a.Self), float64(a.N)) / 1e3 }

// keepSpans bounds the spans a run retains for its trace file; the
// aggregates cover every span regardless.
const keepSpans = 1 << 16

// tracer records the spans of one worker goroutine. A nil *tracer is
// the untraced run: every method is then a no-op.
type tracer struct {
	epoch time.Time
	ops   *atomic.Uint64 // op ID source shared by a run's tracers
	conns []*connTrace   // sockets of the clients the worker uses

	op   uint64
	cur  []span  // spans of the op in progress
	open []int32 // stack of unfinished spans
	agg  map[string]*spanAgg
	kept []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open one; a span with
// no open parent starts a new operation.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op = t.ops.Add(1)
	}
	t.cur = append(t.cur, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	idx := int32(len(t.cur) - 1)
	t.open = append(t.open, idx)
	return idx
}

// end closes span idx. Socket activity seen while it was the innermost
// span becomes its children. Closing a root finishes the operation.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.drainConn(idx)
	t.cur[idx].End = t.now()
	t.open = t.open[:len(t.open)-1]
	if len(t.open) == 0 {
		t.finish()
	}
}

func (t *tracer) drainConn(parent int32) {
	for _, c := range t.conns {
		for _, iv := range c.drain() {
			t.cur = append(t.cur, span{
				Name: iv.name, Op: t.op, Parent: parent,
				Start: int64(iv.start.Sub(t.epoch)), End: int64(iv.end.Sub(t.epoch)),
			})
		}
	}
}

// finish folds the finished operation into the aggregates.
func (t *tracer) finish() {
	self := selfTimes(t.cur)
	for i, s := range t.cur {
		a := t.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[s.Name] = a
		}
		a.N++
		a.Total += s.End - s.Start
		a.Self += self[i]
	}
	if room := keepSpans - len(t.kept); room > 0 {
		if room > len(t.cur) {
			room = len(t.cur)
		}
		t.kept = append(t.kept, t.cur[:room]...)
	}
	t.cur = t.cur[:0]
}

// traceSet is a run's tracers, one per worker goroutine.
type traceSet struct {
	epoch time.Time
	ops   atomic.Uint64
	mu    sync.Mutex
	all   []*tracer
	byG   sync.Map // goroutineKey → *tracer
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

// worker returns a new tracer bound to the calling goroutine (nil when
// ts is nil, i.e. untraced).
func (ts *traceSet) worker(conns ...*connTrace) *tracer {
	if ts == nil {
		return nil
	}
	t := &tracer{epoch: ts.epoch, ops: &ts.ops, conns: conns, agg: make(map[string]*spanAgg)}
	ts.mu.Lock()
	ts.all = append(ts.all, t)
	ts.mu.Unlock()
	ts.byG.Store(goroutineKey(), t)
	return t
}

// current returns the calling goroutine's tracer (nil if it has none),
// for layer wrappers that are shared by several workers.
func (ts *traceSet) current() *tracer {
	if ts == nil {
		return nil
	}
	t, _ := ts.byG.Load(goroutineKey())
	tr, _ := t.(*tracer)
	return tr
}

// totals merges every tracer's aggregates.
func (ts *traceSet) totals() map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	if ts == nil {
		return out
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.all {
		for name, a := range t.agg {
			m := out[name]
			if m == nil {
				m = &spanAgg{}
				out[name] = m
			}
			m.N += a.N
			m.Total += a.Total
			m.Self += a.Self
		}
	}
	return out
}

// write stores the retained spans as JSON lines.
func (ts *traceSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ts.mu.Lock()
	for _, t := range ts.all {
		for _, s := range t.kept {
			if err := enc.Encode(s); err != nil {
				ts.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	ts.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is socket activity seen by connTrace.
type interval struct {
	name       string
	start, end time.Time
}

// connTrace wraps a client's socket. It records each write as a
// "proto.write" interval and the wait from the end of a write to the
// first byte of the reply as a "daemon.service" interval, and counts
// bytes both ways.
type connTrace struct {
	net.Conn
	on    atomic.Bool // recording; off, it only passes bytes through
	bytes atomic.Uint64

	mu        sync.Mutex
	ivs       []interval
	pending   atomic.Bool
	lastWrite time.Time
	awaiting  bool
}

// record switches recording on for a traced segment; the returned
// function switches it off. A nil connTrace is a no-op.
func (c *connTrace) record(ts *traceSet) func() {
	if c == nil || ts == nil {
		return func() {}
	}
	c.drain() // anything seen while off belongs to no span
	c.on.Store(true)
	return func() { c.on.Store(false) }
}

func (c *connTrace) Write(p []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.bytes.Add(uint64(n))
	c.mu.Lock()
	c.ivs = append(c.ivs, interval{"proto.write", t0, t1})
	c.lastWrite, c.awaiting = t1, true
	c.pending.Store(true)
	c.mu.Unlock()
	return n, err
}

func (c *connTrace) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.on.Load() {
		t := time.Now()
		c.bytes.Add(uint64(n))
		c.mu.Lock()
		if c.awaiting {
			c.ivs = append(c.ivs, interval{"daemon.service", c.lastWrite, t})
			c.awaiting = false
			c.pending.Store(true)
		}
		c.mu.Unlock()
	}
	return n, err
}

// drain hands over the intervals recorded since the last drain.
func (c *connTrace) drain() []interval {
	if c == nil || !c.pending.Load() {
		return nil
	}
	c.mu.Lock()
	out := c.ivs
	c.ivs = nil
	c.pending.Store(false)
	c.mu.Unlock()
	return out
}
