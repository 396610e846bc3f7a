package main

import (
	"strings"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not exercise reports 0. NOTES.md says
// which end-to-end metric each should move.
var perLayer = []struct{ name, unit string }{
	{"pmem.fences_per_op", "count/op"},
	{"pmem.flushes_per_op", "count/op"},
	{"pmem.flush_coalesced_ratio", "ratio"},
	{"pmem.fence_stall_share", "ratio"},
	{"pmem.heap_growth_kb_per_kop", "KiB/kop"},
	{"core.tx_us", "us"},
	{"core.tx_body_us", "us"},
	{"core.commit_us", "us"},
	{"core.tx_set_us", "us"},
	{"core.tx_alloc_us", "us"},
	{"core.tx_free_us", "us"},
	{"core.lease_conflicts_per_ktx", "count/ktx"},
	{"core.lease_retries_per_ktx", "count/ktx"},
	{"core.client_us", "us"},
	{"core.sensor_import_us", "us"},
	{"core.sensor_tx_us", "us"},
	{"core.export_us", "us"},
	{"core.import_us", "us"},
	{"core.walk_us", "us"},
	{"core.finalize_us", "us"},
	{"core.ptrs_rewritten_per_import", "count"},
	{"core.import_faults_per_import", "count"},
	{"alloc.cache_hit_ratio", "ratio"},
	{"alloc.refills_per_kop", "count/kop"},
	{"alloc.donations_per_kop", "count/kop"},
	{"kvstore.read_retry_ratio", "ratio"},
	{"kvstore.latch_fallback_ratio", "ratio"},
	{"kvstore.put_self_us", "us"},
	{"proto.roundtrips_per_op", "count/op"},
	{"proto.wire_bytes_per_op", "B/op"},
	{"proto.nop_rtt_us", "us"},
	{"daemon.service_us", "us"},
	{"daemon.checkpoints_per_kop", "count/kop"},
	{"daemon.ckpt_pause_max_us", "us"},
	{"daemon.ckpt_pause_share", "ratio"},
	{"daemon.checkpoint_bytes_per_op", "B/op"},
	{"daemon.journal_bytes_at_crash", "B"},
	{"daemon.boot_s", "s"},
	{"daemon.logs_replayed", "count"},
	{"daemon.entries_applied", "count"},
	{"daemon.persist_errors", "count"},
	{"daemon.dispatch_panics", "count"},
	{"daemon.reserved_mb", "MiB"},
	{"reloc.blob_bytes_per_upload", "B"},
	{"reloc.shipped_bytes_per_user_byte", "B/B"},
	{"trace.overhead_pct", "%"},
}

// counters is a snapshot of every public counter a workload's layers
// keep, summed over the workload's devices and daemons.
type counters struct {
	at                          time.Time
	dev                         pmem.Stats
	ckpts, ckptBytes, ckptPause uint64
	ckptPauseMax                uint64
	persistErrs, panics         uint64
	reserved                    uint64
	kv                          kvstore.ReadStats
	leaseConf, leaseRetry       uint64
	wire                        uint64
}

// sources names what a snapshot reads.
type sources struct {
	devs  []*pmem.Device
	ds    []*daemon.Daemon
	store *kvstore.Store
	cls   []*core.Client
	conns []*connTrace
}

func (s sources) snapshot() counters {
	c := counters{at: time.Now()}
	for _, d := range s.devs {
		st := d.Stats()
		c.dev.Flushes += st.Flushes
		c.dev.Fences += st.Fences
		c.dev.FlushRequests += st.FlushRequests
		c.dev.CoalescedFlushes += st.CoalescedFlushes
		c.dev.CacheHits += st.CacheHits
		c.dev.CacheMisses += st.CacheMisses
		c.dev.CacheRefills += st.CacheRefills
		c.dev.SlabDonations += st.SlabDonations
	}
	for _, d := range s.ds {
		st := d.Stats()
		c.ckpts += st.Checkpoints
		c.ckptBytes += st.CheckpointBytes
		c.ckptPause += st.CkptPauseTotalNs
		if st.CkptPauseMaxNs > c.ckptPauseMax {
			c.ckptPauseMax = st.CkptPauseMaxNs
		}
		c.persistErrs += st.PersistErrors
		c.panics += st.DispatchPanics
		c.reserved += st.ReservedBytes
	}
	if s.store != nil {
		c.kv = s.store.ReadStats()
	}
	for _, cl := range s.cls {
		c.leaseConf += cl.LeaseConflicts()
		c.leaseRetry += cl.LeaseRetries()
	}
	for _, cn := range s.conns {
		c.wire += cn.bytes.Load()
	}
	return c
}

// layerFigures derives the per-layer metrics of one traced segment from
// counter deltas and span aggregates. ops counts completed operations.
func layerFigures(b, a counters, ops int64, tot map[string]*spanAgg) map[string]float64 {
	get := func(name string) *spanAgg {
		if s := tot[name]; s != nil {
			return s
		}
		return &spanAgg{}
	}
	n := float64(ops)
	kop := n / 1000
	var opNs, opN float64 // root operation spans
	for name, s := range tot {
		if strings.HasPrefix(name, "op.") {
			opNs += float64(s.Total)
			opN += float64(s.N)
		}
	}
	tx := get("core.tx")
	txs := float64(tx.N + get("core.sensor_tx").N)
	svc := get("daemon.service")
	fences := float64(a.dev.Fences - b.dev.Fences)
	hits := float64(a.dev.CacheHits - b.dev.CacheHits)
	misses := float64(a.dev.CacheMisses - b.dev.CacheMisses)
	attempts := float64(a.kv.Attempts - b.kv.Attempts)
	return map[string]float64{
		"pmem.fences_per_op":         ratio(fences, n),
		"pmem.flushes_per_op":        ratio(float64(a.dev.Flushes-b.dev.Flushes), n),
		"pmem.flush_coalesced_ratio": ratio(float64(a.dev.CoalescedFlushes-b.dev.CoalescedFlushes), float64(a.dev.FlushRequests-b.dev.FlushRequests)),
		"pmem.fence_stall_share":     ratio(fences*float64(fenceLatency), opNs),

		"core.tx_us":                   tx.meanUs(),
		"core.tx_body_us":              get("core.tx_body").meanUs(),
		"core.commit_us":               tx.meanSelfUs(),
		"core.tx_set_us":               get("core.tx_set").meanUs(),
		"core.tx_alloc_us":             get("core.tx_alloc").meanUs(),
		"core.tx_free_us":              get("core.tx_free").meanUs(),
		"core.lease_conflicts_per_ktx": ratio(float64(a.leaseConf-b.leaseConf), txs/1000),
		"core.lease_retries_per_ktx":   ratio(float64(a.leaseRetry-b.leaseRetry), txs/1000),
		"core.client_us":               ratio(opNs-float64(svc.Total), opN) / 1e3,
		"core.sensor_import_us":        get("core.sensor_import").meanUs(),
		"core.sensor_tx_us":            get("core.sensor_tx").meanUs(),
		"core.export_us":               get("core.export").meanUs(),
		"core.import_us":               get("core.import").meanUs(),
		"core.walk_us":                 get("core.walk").meanUs(),
		"core.finalize_us":             get("core.finalize").meanUs(),

		"alloc.cache_hit_ratio":   ratio(hits, hits+misses),
		"alloc.refills_per_kop":   ratio(float64(a.dev.CacheRefills-b.dev.CacheRefills), kop),
		"alloc.donations_per_kop": ratio(float64(a.dev.SlabDonations-b.dev.SlabDonations), kop),

		"kvstore.read_retry_ratio":     ratio(float64(a.kv.Retries-b.kv.Retries), attempts),
		"kvstore.latch_fallback_ratio": ratio(float64(a.kv.Fallbacks-b.kv.Fallbacks), attempts),
		"kvstore.put_self_us":          get("op.put").meanSelfUs(),

		"proto.roundtrips_per_op":        ratio(float64(svc.N), n),
		"proto.wire_bytes_per_op":        ratio(float64(a.wire-b.wire), n),
		"daemon.service_us":              svc.meanUs(),
		"daemon.checkpoints_per_kop":     ratio(float64(a.ckpts-b.ckpts), kop),
		"daemon.ckpt_pause_max_us":       float64(a.ckptPauseMax) / 1e3,
		"daemon.ckpt_pause_share":        ratio(float64(a.ckptPause-b.ckptPause), float64(a.at.Sub(b.at))),
		"daemon.checkpoint_bytes_per_op": ratio(float64(a.ckptBytes-b.ckptBytes), n),
		"daemon.persist_errors":          float64(a.persistErrs),
		"daemon.dispatch_panics":         float64(a.panics),
		"daemon.reserved_mb":             float64(a.reserved) / (1 << 20),
	}
}

// nopRTT is the median of a few hundred no-op round trips, in µs.
func nopRTT(c *core.Client) float64 {
	var l lat
	for i := 0; i < 256; i++ {
		t0 := time.Now()
		if err := c.Nop(); err != nil {
			return 0
		}
		l.add(time.Since(t0))
	}
	return percentile(l.sorted(), 50) / 1e3
}
