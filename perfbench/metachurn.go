package main

import (
	"fmt"
	"sync"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

// meta-churn: pool lifecycle over a real UNIX socket. Each of two
// dialed clients loops CreatePool → CreateRoot(64 B) → OpenPool →
// Delete on pool names of its own, beside a fixed set of resident
// pools that stay live. Every op is a daemon round trip; the
// transaction path barely runs.
const (
	mcClients  = 2
	mcResident = 16
	mcRootSize = 64
	// mcGoneChecked is how many of each client's last deleted names the
	// gate confirms are gone after the reboot.
	mcGoneChecked = 32
	// mcJournal is the daemon's metadata journal capacity. At 1 MiB
	// (default 8 MiB) the high-water mark triggers checkpoints several
	// times within one short round.
	mcJournal = 1 << 20
	// mcRoundCycles is the pool lifecycles in one round, shared by the
	// clients; each lifecycle is mcOpsPerCycle operations.
	mcRoundCycles = 2000
	mcOpsPerCycle = 4
)

type metaChurn struct {
	seed   int64
	traced bool
	n      *node
	cls    [mcClients]*core.Client
	conns  [mcClients]*connTrace
	rootT  ptypes.TypeID
	ws     [mcClients]*mcWorker
	live   []string // names that must exist after the reboot
}

type mcWorker struct {
	id   int
	c    *core.Client
	next int
	gone []string // most recent deleted names, newest last
}

func newMetaChurn(seed int64, traced bool) *metaChurn {
	return &metaChurn{seed: seed, traced: traced}
}

func (m *metaChurn) params() map[string]any {
	return map[string]any{
		"clients": mcClients, "resident_pools": mcResident, "root_bytes": mcRootSize,
		"cycle": "CreatePool, CreateRoot, OpenPool, Delete",
	}
}

func (m *metaChurn) setup() error {
	var err error
	if m.n, err = newNode("meta.sock", daemon.WithJournalCapacity(mcJournal)); err != nil {
		return err
	}
	for i := range m.cls {
		if m.traced {
			m.conns[i] = &connTrace{}
		}
		if m.cls[i], err = m.n.dial(m.conns[i]); err != nil {
			return err
		}
		ti, err := m.cls[i].RegisterType("perfbench.root64", mcRootSize, nil)
		if err != nil {
			return err
		}
		m.rootT = ti.ID
		m.ws[i] = &mcWorker{id: i, c: m.cls[i]}
	}
	// The seed picks where each client's names start, so runs with
	// different seeds churn different keys of the registry.
	m.ws[0].next = int(uint64(m.seed) % 1_000_000)
	m.ws[1].next = int(uint64(m.seed>>20) % 1_000_000)
	for i := 0; i < mcResident; i++ {
		name := fmt.Sprintf("resident-%d", i)
		if err := m.createWithRoot(m.cls[i%mcClients], name); err != nil {
			return err
		}
		m.live = append(m.live, name)
	}
	return nil
}

func (m *metaChurn) createWithRoot(c *core.Client, name string) error {
	p, err := c.CreatePool(name, 0o600)
	if err != nil {
		return err
	}
	_, err = p.CreateRoot(m.rootT, mcRootSize)
	return err
}

func (m *metaChurn) measure(b budget, ts *traceSet) (segment, error) {
	src := sources{devs: []*pmem.Device{m.n.dev}, ds: []*daemon.Daemon{m.n.d}, cls: m.cls[:]}
	if ts != nil {
		src.conns = m.conns[:]
		for _, c := range m.conns {
			defer c.record(ts)()
		}
	}
	before := src.snapshot()
	cycles := b.ops / mcOpsPerCycle / mcClients
	segs := make([]segment, mcClients)
	var wg sync.WaitGroup
	for _, w := range m.ws {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs[w.id] = w.run(m.rootT, cycles, ts.worker(m.conns[w.id]))
		}()
	}
	wg.Wait()
	after := src.snapshot()
	seg := joinSegments(segs)
	seg.dur = after.at.Sub(before.at)
	if ts != nil {
		seg.layers = layerFigures(before, after, seg.done(), ts.totals())
		seg.layers["proto.nop_rtt_us"] = nopRTT(m.cls[0])
	}
	return seg, nil
}

// run drives one client's lifecycle loop for the given number of
// cycles. A cycle whose step fails is abandoned; the failure is counted.
func (w *mcWorker) run(rootT ptypes.TypeID, cycles int64, t *tracer) segment {
	var seg segment
	step := func(name string, l *lat, fn func() error) bool {
		t0 := time.Now()
		sp := t.begin(name)
		err := fn()
		t.end(sp)
		l.add(time.Since(t0))
		seg.attempted++
		if err != nil {
			seg.failed++
			return false
		}
		return true
	}
	for i := int64(0); i < cycles; i++ {
		name := fmt.Sprintf("c%d-%d", w.id, w.next)
		w.next++
		var p, q *core.Pool
		ok := step("op.create_pool", &seg.writes, func() (err error) { p, err = w.c.CreatePool(name, 0o600); return })
		ok = ok && step("op.create_root", &seg.writes, func() (err error) { _, err = p.CreateRoot(rootT, mcRootSize); return })
		ok = ok && step("op.open_pool", &seg.reads, func() (err error) { q, err = w.c.OpenPool(name); return })
		ok = ok && step("op.delete_pool", &seg.writes, func() error { return q.Delete() })
		if ok {
			if len(w.gone) == mcGoneChecked {
				w.gone = append(w.gone[:0], w.gone[1:]...)
			}
			w.gone = append(w.gone, name)
		}
	}
	return seg
}

// crash makes one last acknowledged pool per client, kills the daemon
// with its journal un-checkpointed, reboots it and times reboot →
// re-dial → first successful OpenPool.
func (m *metaChurn) crash() ([]time.Duration, map[string]float64, error) {
	for i, c := range m.cls {
		name := fmt.Sprintf("final-%d", i)
		if err := m.createWithRoot(c, name); err != nil {
			return nil, nil, err
		}
		m.live = append(m.live, name)
	}
	figs := map[string]float64{"daemon.journal_bytes_at_crash": float64(m.n.d.Stats().JournalBytes)}
	if err := m.n.kill(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	if err := m.n.boot(); err != nil {
		return nil, nil, err
	}
	figs["daemon.boot_s"] = time.Since(t0).Seconds()
	c, err := m.n.dial(nil)
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.OpenPool(m.live[0]); err != nil {
		return nil, nil, fmt.Errorf("first read after reboot: %w", err)
	}
	rec := time.Since(t0)
	st := m.n.d.Stats()
	figs["daemon.logs_replayed"] = float64(st.LogsReplayed)
	figs["daemon.entries_applied"] = float64(st.EntriesApplied)
	m.cls[0] = c
	return []time.Duration{rec}, figs, nil
}

// check: after the reboot the daemon holds exactly the expected live
// pools, each with its root; recently deleted pools stay gone; and the
// daemon's own consistency check passes.
func (m *metaChurn) check() error {
	if got := m.n.d.Stats().Pools; got != len(m.live) {
		return fmt.Errorf("daemon holds %d pools after reboot, want %d", got, len(m.live))
	}
	c := m.cls[0]
	for _, name := range m.live {
		p, err := c.OpenPool(name)
		if err != nil {
			return fmt.Errorf("live pool %s: %w", name, err)
		}
		if _, err := p.Root(); err != nil {
			return fmt.Errorf("live pool %s root: %w", name, err)
		}
	}
	for _, w := range m.ws {
		if len(w.gone) == 0 {
			return fmt.Errorf("client %d completed no lifecycle", w.id)
		}
		for _, name := range w.gone {
			if _, err := c.OpenPool(name); err == nil {
				return fmt.Errorf("deleted pool %s is back after reboot", name)
			}
		}
	}
	if err := m.n.d.CheckConsistency(); err != nil {
		return fmt.Errorf("daemon consistency: %w", err)
	}
	return nil
}

func (m *metaChurn) teardown() {
	if m.n != nil {
		m.n.stop()
	}
}

// roundOps keeps rounds to a fixed amount of work: every pool lifecycle
// leaves ~60 KiB of simulated device behind (deleted puddles' chunks are
// never freed), so a round's 2,000 lifecycles end near 130 MiB of live
// heap, whatever the speed of the machine.
func (m *metaChurn) roundOps() int64 { return mcRoundCycles * mcOpsPerCycle }
