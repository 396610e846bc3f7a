package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// Fuzz targets for the two device scanners every checkpoint runs:
// scanHalf over an arena half and readJournals over a journal region.

// fuzzArena is the checkpoint arena of the scan fuzz daemons: two
// 16 KiB halves, which the seed images fit.
const fuzzArena = 32 << 10

// fuzzJournalMax caps the journal bytes one fuzz input places.
const fuzzJournalMax = 64 << 10

// A scan of n device bytes split into u chunks or entries may allocate
// at most scanAllocFactor bytes per byte (the payload copy, its decode
// — FuzzDecodeBatch bounds that at 8x — and registry map growth),
// scanAllocPerUnit per chunk or entry (a fresh registry per full
// commit) and scanAllocSlack (the error that ends a scan). Crafted
// worst cases measured at about 8 bytes per byte: 1000 tombstones in
// one chunk, or back-to-back empty full checkpoints.
const (
	scanAllocFactor  = 16
	scanAllocPerUnit = 256
	scanAllocSlack   = 16 << 10
)

func newFuzzDaemon(tb testing.TB) *Daemon {
	tb.Helper()
	d, err := New(pmem.New(), WithCheckpointArena(fuzzArena), WithCheckpointChunkBytes(256))
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// composeSeedImages runs the workloads of TestChunkedCheckpointCompose
// (multi-chunk increments with replacements and tombstones, a
// journal-only tail) and TestJournalSwitchCompose (a checkpoint that
// switched journals and then failed, so the acked batches span both
// regions) on the fuzz arena and returns their daemons where each test
// crashes.
func composeSeedImages(tb testing.TB) []*Daemon {
	chunked := newFuzzDaemon(tb)
	c := chunked.SelfConn()
	defer c.Close()
	for i := 0; i < 12; i++ {
		resp := rt(tb, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("pool-%d", i)})
		rt(tb, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize})
	}
	if _, err := chunked.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rt(tb, c, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("pool-%d", i)})
	}
	if _, err := chunked.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	rt(tb, c, &proto.Request{Op: proto.OpCreatePool, Name: "journal-only"})

	switched := newFuzzDaemon(tb)
	c2 := switched.SelfConn()
	defer c2.Close()
	rt(tb, c2, &proto.Request{Op: proto.OpCreatePool, Name: "a"})
	if _, err := switched.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	rt(tb, c2, &proto.Request{Op: proto.OpCreatePool, Name: "b"})
	half := switched.ckptHalf
	switched.ckptHalf = 64
	if _, err := switched.CompactNow(); err == nil {
		tb.Fatal("checkpoint into a 64-byte half succeeded")
	}
	switched.ckptHalf = half
	rt(tb, c2, &proto.Request{Op: proto.OpCreatePool, Name: "c"})
	return []*Daemon{chunked, switched}
}

// leastAlloc measures the bytes fn allocates. fn is deterministic, so
// the least of a few runs drops what other goroutines (the fuzzing
// engine's among them) allocated during the measurement.
func leastAlloc(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// canonicalState encodes st as one batch in a fixed record order, so
// two states encode alike exactly when they hold the same records.
func canonicalState(st *state) []byte {
	var recs []entRec
	_ = eachRecord(st, func(er entRec) error {
		recs = append(recs, er)
		return nil
	})
	recs = append(recs, putRec(recCounters, "", &counters{
		NextSession: st.NextSession, Recoveries: st.Recoveries, LogsReplayed: st.LogsReplayed,
		EntriesApplied: st.EntriesApplied, Imports: st.Imports,
	}))
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Kind != recs[j].Kind {
			return recs[i].Kind < recs[j].Kind
		}
		return recs[i].Key < recs[j].Key
	})
	return binary.LittleEndian.AppendUint64(encodeBatch(recs), st.Seq)
}

// rescan writes st as a full checkpoint through the daemon's own
// writer on a fresh device and scans it back.
func rescan(t *testing.T, st *state) *state {
	d, err := New(pmem.New())
	if err != nil {
		t.Fatal(err)
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.st, d.seq = *st, st.Seq
	if err := d.checkpointSync(true); err != nil {
		t.Fatalf("re-encoding an accepted chain: %v", err)
	}
	sr, ok := d.scanHalf(d.chain.half)
	if !ok {
		t.Fatal("re-encoded chain does not scan")
	}
	return sr.st
}

// FuzzScanHalf: scanHalf over arbitrary arena bytes never panics,
// stays within its allocation bound, and a chain it accepts re-scans
// to the same registry once re-encoded as a full checkpoint.
func FuzzScanHalf(f *testing.F) {
	for _, d := range composeSeedImages(f) {
		b := make([]byte, 2*d.ckptHalf)
		d.dev.Load(pmem.MetaCkptBase, b)
		f.Add(bytes.TrimRight(b, "\x00"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newFuzzDaemon(t)
		arena := 2 * d.ckptHalf
		if uint64(len(data)) > arena {
			data = data[:arena]
		}
		d.dev.Zero(pmem.MetaCkptBase, int(arena))
		d.dev.Store(pmem.MetaCkptBase, data)
		// Past the data, a scan copies at most one claimed payload, no
		// larger than a half, and then rejects it.
		chunks := uint64(len(data))/(ckHdrSize+1) + 2
		limit := scanAllocFactor*uint64(len(data)) + d.ckptHalf + scanAllocPerUnit*chunks + scanAllocSlack
		for half := 0; half < 2; half++ {
			if got := leastAlloc(func() { d.scanHalf(half) }); got > limit {
				t.Fatalf("scanning half %d of %d bytes allocated %d, limit %d", half, len(data), got, limit)
			}
			sr, ok := d.scanHalf(half)
			if !ok {
				continue
			}
			if want, got := canonicalState(sr.st), canonicalState(rescan(t, sr.st)); !bytes.Equal(got, want) {
				t.Fatalf("half %d: accepted chain re-scans differently:\n got %x\nwant %x", half, got, want)
			}
		}
	})
}

// jbatch is one batch readJournals handed over.
type jbatch struct {
	seq  uint64
	recs []decRec
}

// readRegion0 reads journal region 0 as the active region with the
// given tail, the way a live checkpoint reads it.
func readRegion0(d *Daemon, tail uint64) ([]jbatch, journalPos) {
	var out []jbatch
	end, _ := d.readJournals(0, math.MaxUint64, pmem.MetaJournal0, tail, func(seq uint64, recs []decRec) error {
		out = append(out, jbatch{seq, recs})
		return nil
	})
	return out, end
}

// FuzzJournalRegion: the shared journal reader over arbitrary region
// bytes never panics, never reads past the tail it is given, stays
// within its allocation bound, and the batches it accepts, appended
// again through appendBatch with the same sequence numbers, read back
// identically.
func FuzzJournalRegion(f *testing.F) {
	for _, d := range composeSeedImages(f) {
		for _, a := range []pmem.Addr{pmem.MetaJournal0, pmem.MetaJournal1} {
			if d.dev.LoadU64(a+jrnOffMagic) != journalMagic {
				continue
			}
			b := make([]byte, fuzzJournalMax)
			d.dev.Load(a+jrnHdrSize, b)
			f.Add(bytes.TrimRight(b, "\x00"))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzJournalMax {
			data = data[:fuzzJournalMax]
		}
		d := newFuzzDaemon(t) // journal 0 is active, empty, base 0
		tail := uint64(jrnHdrSize + len(data))
		d.dev.Store(pmem.MetaJournal0+jrnHdrSize, data)
		// A reader that ignored the tail would find more entries here.
		d.dev.Store(pmem.MetaJournal0+pmem.Addr(tail), data)
		entries := uint64(len(data))/(entHdrSize+1) + 1
		limit := scanAllocFactor*uint64(len(data)) + scanAllocPerUnit*entries + scanAllocSlack
		nop := func(uint64, []decRec) error { return nil }
		if got := leastAlloc(func() { d.readJournals(0, math.MaxUint64, pmem.MetaJournal0, tail, nop) }); got > limit {
			t.Fatalf("reading %d journal bytes allocated %d, limit %d", len(data), got, limit)
		}
		got, end := readRegion0(d, tail)
		if end.off > tail {
			t.Fatalf("read up to offset %d, past the tail %d", end.off, tail)
		}

		d2 := newFuzzDaemon(t)
		for _, b := range got {
			ents := make([]entRec, len(b.recs))
			for i, r := range b.recs {
				ents[i] = r.entRec
			}
			d2.seq = b.seq - 1 // appendBatch assigns b.seq
			if err := d2.appendBatch(ents); err != nil {
				t.Fatal(err)
			}
		}
		if again, _ := readRegion0(d2, d2.jTail); !reflect.DeepEqual(again, got) {
			t.Fatalf("accepted batches read back differently:\n got %+v\nwant %+v", again, got)
		}
	})
}
