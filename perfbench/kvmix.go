package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"puddles/internal/baselines/puddleslib"
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/ycsb"
)

// kv-mix: the in-process transaction path. Two workers share one
// dialed client and one kvstore over puddleslib. Per worker, 50% Get,
// 40% in-place update, 5% insert, 5% delete of that worker's oldest
// live insert (the generator's remaining 5% slot), so the key count
// stays level. Reads and updates draw scrambled-zipfian (0.99) keys from
// the loaded records.
const (
	kvRecords   = 200_000
	kvValueSize = 100
	kvWorkers   = 2
	kvBuckets   = 1 << 16
	kvStripes   = 256
	// kvPreload is how many inserts each worker holds before the
	// measured phase, so a delete always has a target (the live count
	// random-walks; a worker whose queue runs dry inserts instead).
	kvPreload = 2048
	// kvPreBase and kvHeldBase keep pre-loaded and crash-time keys
	// apart from the generator's insert keys (kvRecords + worker + 2i).
	kvPreBase  = 1 << 40
	kvHeldBase = 1 << 41
	// kvCrashes is how many times each round leaves transactions open,
	// kills the daemon and recovers; recovery_s is the interquartile
	// mean over every round's crashes.
	kvCrashes = 10
	// kvWindow is the target length of the windows a round's load is
	// cut into; rates and percentiles are interquartile means over
	// windows, so a short stall of the machine moves a window that is
	// dropped, not the result.
	kvWindow = 500 * time.Millisecond
)

var kvMixRatios = ycsb.Workload{Name: "kv-mix", ReadProp: 0.50, UpdateProp: 0.40, InsertProp: 0.05, RMWProp: 0.05}

type kvMix struct {
	seed   int64
	traced bool
	n      *node
	opts   kvstore.Options
	side   kvSide
	ws     [kvWorkers]*kvWorker

	heldKeys []uint64 // keys of transactions a crash left open
	liveErr  error    // a recovery that did not roll allocations back
}

// kvSide is one client's view of the store. All of a round's load
// goes through one client: the allocator state a client keeps for a
// pool is its own, so two clients allocating in one pool would hand
// out the same blocks.
type kvSide struct {
	c     *core.Client
	conn  *connTrace // nil unless the run is traced
	pool  *core.Pool
	lib   *puddleslib.Lib
	store *kvstore.Store
}

type kvInsert struct{ key, stamp uint64 }

type kvWorker struct {
	id      int
	gen     *ycsb.Generator
	last    []uint64 // last acked stamp per loaded key; 0 = never written by this worker
	live    []kvInsert
	head    int // live[head:] are this worker's live inserts, oldest first
	deleted []uint64
	seq     uint64
	spare   uint64
	val     []byte
	got     []byte
	wrong   int64 // reads that returned another key's value
}

func newKVMix(seed int64, traced bool) *kvMix {
	return &kvMix{seed: seed, traced: traced, opts: kvstore.Options{Buckets: kvBuckets, ValueSize: kvValueSize, LatchStripes: kvStripes}}
}

func (m *kvMix) params() map[string]any {
	return map[string]any{
		"records": kvRecords, "value_bytes": kvValueSize, "workers": kvWorkers, "clients": 1,
		"mix": "50% get, 40% update, 5% insert, 5% delete-oldest-insert", "keys": "scrambled zipfian 0.99",
		"buckets": kvBuckets, "latch_stripes": kvStripes, "preloaded_inserts_per_worker": kvPreload,
	}
}

// stamp makes a value version unique across workers; 0 is the load.
func (w *kvWorker) stamp() uint64 {
	w.seq++
	return w.seq<<1 | uint64(w.id)
}

// fillValue writes the value for (key, stamp): key and stamp, then
// bytes derived from both, so a read can check all 100 bytes.
func fillValue(buf []byte, key, stamp uint64) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], stamp)
	x := key*0x9e3779b97f4a7c15 ^ stamp
	for i := 16; i < len(buf); i++ {
		if i%8 == 0 {
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
		}
		buf[i] = byte(x >> (8 * (i % 8)))
	}
}

func (m *kvMix) open(s *kvSide, tr *connTrace, create bool) error {
	c, err := m.n.dial(tr)
	if err != nil {
		return err
	}
	s.c, s.conn = c, tr
	if create {
		s.pool, err = c.CreatePool("kv", 0o600)
	} else {
		s.pool, err = c.OpenPool("kv")
	}
	if err != nil {
		return err
	}
	s.lib = puddleslib.Wrap(c, s.pool)
	s.store, err = kvstore.New(s.lib, m.opts)
	return err
}

func (m *kvMix) setup() error {
	var err error
	if m.n, err = newNode("kv.sock"); err != nil {
		return err
	}
	var tr *connTrace
	if m.traced {
		tr = &connTrace{}
	}
	if err := m.open(&m.side, tr, true); err != nil {
		return err
	}
	// Load: each worker writes half the records, then its own queue of
	// inserts for deletes to consume.
	errs := make([]error, kvWorkers)
	var wg sync.WaitGroup
	for i := range m.ws {
		w := &kvWorker{
			id:   i,
			gen:  ycsb.NewShardedGenerator(kvMixRatios, kvRecords, m.seed+int64(i), i, kvWorkers),
			last: make([]uint64, kvRecords),
			val:  make([]byte, kvValueSize),
			got:  make([]byte, kvValueSize),
		}
		m.ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := m.side.store
			for k := uint64(w.id); k < kvRecords; k += kvWorkers {
				fillValue(w.val, k, 0)
				if err := st.Put(k, w.val); err != nil {
					errs[w.id] = fmt.Errorf("load key %d: %w", k, err)
					return
				}
			}
			for i := uint64(0); i < kvPreload; i++ {
				k := kvPreBase + uint64(w.id) + kvWorkers*i
				fillValue(w.val, k, 0)
				if err := st.Put(k, w.val); err != nil {
					errs[w.id] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
				w.live = append(w.live, kvInsert{k, 0})
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (m *kvMix) measure(b budget, ts *traceSet) (segment, error) {
	side, st := &m.side, m.side.store
	if ts != nil {
		// The same store, reached through the span-recording library.
		var err error
		if st, err = kvstore.New(&tracedLib{Lib: side.lib, ts: ts}, m.opts); err != nil {
			return segment{}, err
		}
		defer side.conn.record(ts)()
	}
	src := sources{devs: []*pmem.Device{m.n.dev}, ds: []*daemon.Daemon{m.n.d}, store: st, cls: []*core.Client{side.c}}
	if ts != nil {
		src.conns = []*connTrace{side.conn}
	}
	n := max(1, int(math.Round(float64(b.dur)/float64(kvWindow))))
	win := b.dur / time.Duration(n)
	before := src.snapshot()
	perWorker := make([][]segment, kvWorkers)
	var wg sync.WaitGroup
	for _, w := range m.ws {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			perWorker[w.id] = w.run(st, before.at, win, n, ts.worker(side.conn))
		}()
	}
	wg.Wait()
	after := src.snapshot()
	wins := make([]segment, n)
	for i := range wins {
		wins[i] = joinSegments([]segment{perWorker[0][i], perWorker[1][i]})
		wins[i].dur = win
	}
	seg := joinSegments(wins)
	seg.dur = after.at.Sub(before.at)
	seg.windows = wins
	for _, w := range m.ws {
		if w.wrong > 0 {
			return seg, fmt.Errorf("worker %d: %d reads returned another key's value", w.id, w.wrong)
		}
	}
	if ts != nil {
		seg.layers = layerFigures(before, after, seg.attempted-seg.failed, ts.totals())
		seg.layers["proto.nop_rtt_us"] = nopRTT(side.c)
	}
	return seg, nil
}

// run drives the worker's closed loop through n windows of length win
// starting at start, and returns each window's figures.
func (w *kvWorker) run(st *kvstore.Store, start time.Time, win time.Duration, n int, t *tracer) []segment {
	wins := make([]segment, n)
	i, end := 0, start.Add(win)
	for now := time.Now(); i < n; {
		op := w.gen.Next()
		read := false
		var err error
		begun := now
		switch {
		case op.Kind == ycsb.OpRead:
			read = true
			sp := t.begin("op.get")
			err = st.Get(op.Key, w.got)
			t.end(sp)
			if err == nil && binary.LittleEndian.Uint64(w.got) != op.Key {
				w.wrong++
			}
		case op.Kind == ycsb.OpUpdate:
			s := w.stamp()
			fillValue(w.val, op.Key, s)
			sp := t.begin("op.put")
			err = st.Put(op.Key, w.val)
			t.end(sp)
			if err == nil {
				w.last[op.Key] = s
			}
		case op.Kind == ycsb.OpInsert:
			err = w.insert(st, op.Key, t)
		case w.head == len(w.live):
			err = w.insert(st, w.spareKey(), t)
		default:
			k := w.live[w.head].key
			sp := t.begin("op.delete")
			err = st.Delete(k)
			t.end(sp)
			if err == nil {
				w.head++
				w.deleted = append(w.deleted, k)
				if w.head > 4096 && w.head*2 > len(w.live) {
					w.live = append(w.live[:0], w.live[w.head:]...)
					w.head = 0
				}
			}
		}
		now = time.Now()
		cur := &wins[i]
		if read {
			cur.reads.add(now.Sub(begun))
		} else {
			cur.writes.add(now.Sub(begun))
		}
		cur.attempted++
		if err != nil {
			cur.failed++
		}
		for i < n && !now.Before(end) {
			wins[i].dur = win
			i, end = i+1, end.Add(win)
		}
	}
	return wins
}

func (w *kvWorker) insert(st *kvstore.Store, k uint64, t *tracer) error {
	s := w.stamp()
	fillValue(w.val, k, s)
	sp := t.begin("op.put")
	err := st.Put(k, w.val)
	t.end(sp)
	if err == nil {
		w.live = append(w.live, kvInsert{k, s})
	}
	return err
}

// spareKey is an insert key for a delete slot that found the worker's
// queue empty.
func (w *kvWorker) spareKey() uint64 {
	w.spare++
	return kvPreBase + uint64(w.id) + kvWorkers*(kvPreload+w.spare)
}

// crash, kvCrashes times over, leaves one open transaction per worker
// (an insert that has allocated, written and linked its entry), kills
// the daemon, reboots it and times reboot → re-dial → first successful
// Get.
func (m *kvMix) crash() ([]time.Duration, map[string]float64, error) {
	figs := map[string]float64{"daemon.journal_bytes_at_crash": float64(m.n.d.Stats().JournalBytes)}
	var recs []time.Duration
	var boots []float64
	for i := 0; i < kvCrashes; i++ {
		rec, boot, err := m.crashOnce(i)
		if err != nil {
			return nil, nil, fmt.Errorf("crash %d: %w", i, err)
		}
		recs, boots = append(recs, rec), append(boots, boot.Seconds())
	}
	st := m.n.d.Stats()
	figs["daemon.boot_s"] = median(boots)
	figs["daemon.logs_replayed"] = float64(st.LogsReplayed)
	figs["daemon.entries_applied"] = float64(st.EntriesApplied)
	return recs, figs, nil
}

// crashOnce leaves the open transactions, kills the daemon and times
// the recovery; it returns the recovery and daemon boot times.
func (m *kvMix) crashOnce(i int) (rec, boot time.Duration, err error) {
	// A fresh handle sees every puddle the pool grew, whichever client
	// grew it.
	c, err := m.n.dial(nil)
	if err != nil {
		return 0, 0, err
	}
	p, err := c.OpenPool("kv")
	if err != nil {
		return 0, 0, err
	}
	before := p.LiveObjects()
	held := &heldLib{Lib: m.side.lib}
	hs, err := kvstore.New(held, m.opts)
	if err != nil {
		return 0, 0, err
	}
	for _, w := range m.ws {
		k := kvHeldBase + uint64(i*kvWorkers+w.id)
		fillValue(w.val, k, w.stamp())
		if err := hs.Put(k, w.val); err != nil {
			return 0, 0, fmt.Errorf("open transaction: %w", err)
		}
		m.heldKeys = append(m.heldKeys, k)
	}
	if len(held.held) != kvWorkers {
		return 0, 0, fmt.Errorf("%d transactions left open, want %d", len(held.held), kvWorkers)
	}
	if err := m.n.kill(); err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	if err := m.n.boot(); err != nil {
		return 0, 0, err
	}
	boot = time.Since(t0)
	if err := m.open(&m.side, nil, false); err != nil {
		return 0, 0, err
	}
	if err := m.side.store.Get(0, m.ws[0].got); err != nil {
		return 0, 0, fmt.Errorf("first read after reboot: %w", err)
	}
	rec = time.Since(t0)
	if after := m.side.pool.LiveObjects(); after != before && m.liveErr == nil {
		m.liveErr = fmt.Errorf("pool holds %d live objects after recovery %d, %d before its open transactions", after, i, before)
	}
	return rec, boot, nil
}

// check: every acked key holds its last acked value (one of the two
// workers' last values where both wrote it), deleted and unacked keys
// are absent, and the open transactions' allocations were rolled back.
func (m *kvMix) check() error {
	st, got, want := m.side.store, make([]byte, kvValueSize), make([]byte, kvValueSize)
	a, b := m.ws[0], m.ws[1]
	for k := uint64(0); k < kvRecords; k++ {
		if err := st.Get(k, got); err != nil {
			return fmt.Errorf("loaded key %d: %w", k, err)
		}
		s := binary.LittleEndian.Uint64(got[8:])
		sa, sb := a.last[k], b.last[k]
		switch {
		case sa == 0 && sb == 0 && s != 0,
			sa != 0 && sb == 0 && s != sa,
			sa == 0 && sb != 0 && s != sb,
			sa != 0 && sb != 0 && s != sa && s != sb:
			return fmt.Errorf("key %d holds version %#x; last acked versions %#x and %#x", k, s, sa, sb)
		}
		fillValue(want, k, s)
		if string(got) != string(want) {
			return fmt.Errorf("key %d: value bytes do not match version %#x", k, s)
		}
	}
	for _, w := range m.ws {
		for _, in := range w.live[w.head:] {
			if err := st.Get(in.key, got); err != nil {
				return fmt.Errorf("inserted key %d: %w", in.key, err)
			}
			fillValue(want, in.key, in.stamp)
			if string(got) != string(want) {
				return fmt.Errorf("inserted key %d does not hold its acked value", in.key)
			}
		}
		for _, k := range w.deleted {
			if st.Contains(k) {
				return fmt.Errorf("deleted key %d is present", k)
			}
		}
	}
	for _, k := range m.heldKeys {
		if st.Contains(k) {
			return fmt.Errorf("key %d of an unacknowledged transaction survived the crash", k)
		}
	}
	return m.liveErr
}

func (m *kvMix) teardown() {
	if m.n != nil {
		m.n.stop()
	}
}

func (m *kvMix) roundOps() int64 { return 0 }
