package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestJournalReplayAfterCrash: metadata mutated after the boot
// checkpoint lives only in the journal; a daemon that dies without
// Shutdown must recover it from per-entity records on reboot.
func TestJournalReplayAfterCrash(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	pool := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journaled"})
	pu := rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "second"})
	rt(t, c, &proto.Request{Op: proto.OpDeletePool, Name: "second"})
	c.Close()
	// No Shutdown: the dirty flag stays set and no final checkpoint is
	// written — everything above exists only as journal batches.

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journaled"})
	if opened.Addr != pool.Addr || len(opened.Puddles) != 2 {
		t.Fatalf("journal replay lost state: %+v", opened)
	}
	got := rt(t, c2, &proto.Request{Op: proto.OpGetExistPuddle, UUID: pu.UUID})
	if got.Addr != pu.Addr {
		t.Fatalf("puddle record lost: %+v", got)
	}
	if _, err := c2.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "second"}); err == nil {
		t.Fatal("tombstoned pool came back to life")
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistFailureSurfaced: when the journal append fails, the
// client must get an error (not an ack for unpersisted metadata), the
// PersistErrors counter must tick, and the daemon must not have
// applied the half-operation. The next worker pass compacts the
// journal and service resumes.
func TestPersistFailureSurfaced(t *testing.T) {
	d, c := newDaemon(t)
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "pre"})
	// Jam the journal tail at capacity so the next append cannot fit.
	d.jMu.Lock()
	realTail := d.jTail
	d.jTail = d.journalCap - entHdrSize
	d.jTailApprox.Store(d.jTail)
	d.jMu.Unlock()

	_, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "doomed"})
	if err == nil || !strings.Contains(err.Error(), "persisting metadata") {
		t.Fatalf("CreatePool with full journal = %v, want persist error", err)
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.PersistErrors == 0 {
		t.Fatalf("PersistErrors = 0 after failed persist; stats %+v", st)
	}
	if st.Pools != 1 {
		t.Fatalf("half-applied pool registered: %+v", st)
	}
	// The failed request's worker ran compaction (tail was over the
	// high-water mark), so the same request now succeeds.
	if st.JournalBytes >= realTail+d.journalHighWater() {
		t.Fatalf("journal not compacted: %d bytes", st.JournalBytes)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "doomed"})
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchPanicConfined: a panic inside one handler must produce
// an error response for that request, tick DispatchPanics, and leave
// the connection (and daemon) serving.
func TestDispatchPanicConfined(t *testing.T) {
	d, c := newDaemon(t)
	d.panicHook = func(req *proto.Request) {
		if req.Op == proto.OpListPools {
			panic("injected handler bug")
		}
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpListPools}); err == nil ||
		!strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panicking op = %v, want internal error response", err)
	}
	// Same connection keeps working.
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "alive"})
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.DispatchPanics != 1 {
		t.Fatalf("DispatchPanics = %d, want 1", st.DispatchPanics)
	}
}

// TestGroupCommitConcurrentAppends: hammer appendBatch from many
// goroutines; every acked batch must survive a dirty reboot, and the
// journal must replay cleanly. This pins the leader-follower group
// commit to the same durability contract as the per-append path.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	const workers, each = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.RoundTrip(&proto.Request{
					Op: proto.OpCreatePool, Name: fmt.Sprintf("gc-%d-%d", w, i),
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// No shutdown: everything acked lives in journal batches only.
	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Pools != workers*each {
		t.Fatalf("pools after reboot = %d, want %d", st.Pools, workers*each)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkJournal_GroupCommit measures concurrent metadata appends
// with the fence-drain model armed: the leader-follower group commit
// amortizes the two journal fences over every concurrent caller,
// which is what lifts benchrunner daemonmt past its ~1.5x plateau.
func BenchmarkJournal_GroupCommit(b *testing.B) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		b.Fatal(err)
	}
	dev.SetFenceLatency(2 * time.Microsecond)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := d.appendBatch([]entRec{d.countersRec()})
			if err == errJournalFull {
				d.maybeCompact()
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestGobEraImageRefused: an image this daemon cannot read is refused
// with ErrImageFormat before anything is written. Two kinds: a journal
// carrying the gob-era magic (booting it would compose an empty
// registry and then reset the journals that hold the real one), and a
// superblock magic with no decodable checkpoint chain — what an image
// of the first daemon generation (whole-state snapshot slots only) or
// a corrupt arena presents.
func TestGobEraImageRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		regress func(d *Daemon, dev *pmem.Device)
	}{
		{"gob-journal", func(d *Daemon, dev *pmem.Device) {
			dev.StoreU64(pmem.MetaJournal0+jrnOffMagic, gobJournalMagic)
			dev.Persist(pmem.MetaJournal0+jrnOffMagic, 8)
		}},
		{"no-chain", func(d *Daemon, dev *pmem.Device) {
			for half := 0; half < 2; half++ {
				hdr := d.ckptHalfBase(half)
				dev.StoreU64(hdr+8, ^dev.LoadU64(hdr+8)) // first chunk's CRC
				dev.Persist(hdr+8, 8)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.NewChaos(1)
			d, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			c := d.SelfConn()
			rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "old"})
			c.Close()
			tc.regress(d, dev)

			snap := func() []byte {
				var b []byte
				for _, r := range []struct {
					a pmem.Addr
					n int
				}{
					{metaBase, 16}, {pmem.MetaJournal0, 4096}, {pmem.MetaJournal1, 64},
					{d.ckptHalfBase(0), 4096}, {d.ckptHalfBase(1), 4096},
				} {
					buf := make([]byte, r.n)
					dev.Load(r.a, buf)
					b = append(b, buf...)
				}
				return b
			}
			events, stats, bytesBefore := dev.Events(), dev.Stats(), snap()
			if _, err := New(dev); !errors.Is(err, ErrImageFormat) {
				t.Fatalf("boot: err %v, want ErrImageFormat", err)
			}
			if dev.Events() != events || dev.Stats() != stats {
				t.Fatal("refused boot wrote to the device")
			}
			if !bytes.Equal(snap(), bytesBefore) {
				t.Fatal("refused boot changed the metadata regions")
			}
		})
	}
}

// TestFirstBootCrashSweep power-fails a fresh device at every
// persistence event of its first boot. The next boot must open every
// crashed image as an empty, consistent registry: the superblock magic
// may become durable only after the boot checkpoint and the journals
// it vouches for.
func TestFirstBootCrashSweep(t *testing.T) {
	probes := 0
	for off := int64(1); ; off++ {
		dev := pmem.NewChaos(off)
		dev.CrashAtEvent(off)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if !pmem.IsCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if _, err := New(dev); err != nil {
				t.Fatalf("offset %d: first boot: %v", off, err)
			}
			return false
		}()
		if !crashed {
			break
		}
		probes++
		d, err := New(dev)
		if err != nil {
			t.Errorf("offset %d: reboot: %v", off, err)
			continue
		}
		if st := d.Stats(); st.Pools != 0 || st.Puddles != 0 || st.LogSpaces != 0 {
			t.Errorf("offset %d: registry not empty: %d pools, %d puddles, %d log spaces",
				off, st.Pools, st.Puddles, st.LogSpaces)
		}
		if err := d.CheckConsistency(); err != nil {
			t.Errorf("offset %d: %v", off, err)
		}
	}
	if probes == 0 {
		t.Fatal("no crash point fell inside the first boot")
	}
	t.Logf("%d crash offsets inside the first boot", probes)
}
