package daemon

import (
	"fmt"
	"sync"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// TestLegacySlotAlternation regresses the same-slot overwrite bug in
// the retained v1 writer: checkpoint, journal an ODD number of
// batches, checkpoint again. Under the original Seq%2 parity
// selection both checkpoints landed in the SAME slot (journal appends
// bump the shared sequence), leaving the other slot stale — so a
// crash mid-second-write destroyed the only good snapshot. With
// alternation the two newest checkpoints always live in different
// slots. chaos.LegacyCheckpointOverwrite sweeps the actual crash.
func TestLegacySlotAlternation(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev, WithLegacyCheckpoints())
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	defer c.Close()
	_, seq1, ok := d.readSlot(d.legacySlot)
	if !ok {
		t.Fatalf("boot checkpoint slot %#x unreadable", uint64(d.legacySlot))
	}
	first := d.legacySlot
	// Odd number of journal appends keeps the parity of the next
	// checkpoint seq equal to the last one's — the parity bug's trigger.
	for i := 0; i < 3; i++ {
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("odd-%d", i)})
	}
	if _, err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if d.legacySlot == first {
		t.Fatalf("second checkpoint reused slot %#x (parity bug)", uint64(first))
	}
	_, seqOld, ok := d.readSlot(first)
	if !ok || seqOld != seq1 {
		t.Fatalf("previous slot destroyed: ok=%v seq=%d want %d", ok, seqOld, seq1)
	}
	_, seqNew, ok := d.readSlot(d.legacySlot)
	if !ok || seqNew <= seq1 {
		t.Fatalf("new slot seq=%d ok=%v, want > %d", seqNew, ok, seq1)
	}
}

// TestFailedCheckpointSideEffectFree: a checkpoint that cannot fit
// must not perturb journal sequencing (the v1 writer bumped d.seq
// before its size check, so every failed compaction desequenced the
// journal) or lose dirty-entity tracking; after the capacity returns,
// everything checkpointed and journaled must survive a dirty reboot.
func TestFailedCheckpointSideEffectFree(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		dev := pmem.New()
		d, err := New(dev, WithLegacyCheckpoints())
		if err != nil {
			t.Fatal(err)
		}
		c := d.SelfConn()
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "kept"})
		seqBefore, stSeqBefore := d.seq, d.st.Seq
		d.legacySlotCap = 64 // nothing fits
		if _, err := d.CompactNow(); err == nil {
			t.Fatal("checkpoint into a 64-byte slot succeeded")
		}
		if d.seq != seqBefore || d.st.Seq != stSeqBefore {
			t.Fatalf("failed checkpoint moved seq %d->%d (st.Seq %d->%d)",
				seqBefore, d.seq, stSeqBefore, d.st.Seq)
		}
		d.legacySlotCap = slotBytes
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "after"})
		c.Close()
		d2, err := New(dev)
		if err != nil {
			t.Fatalf("reboot: %v", err)
		}
		c2 := d2.SelfConn()
		defer c2.Close()
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "kept"})
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "after"})
		if err := d2.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		dev := pmem.New()
		d, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		c := d.SelfConn()
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "kept"})
		seqBefore := d.seq
		half := d.ckptHalf
		d.ckptHalf = 64 // no chunk fits; writeChunk fails before writing
		if _, err := d.CompactNow(); err == nil {
			t.Fatal("checkpoint into a 64-byte half succeeded")
		}
		if d.seq != seqBefore {
			t.Fatalf("failed checkpoint moved seq %d->%d", seqBefore, d.seq)
		}
		d.ckptHalf = half
		// The dirty set must have been restored: the next compaction's
		// increment re-captures "kept", and a dirty reboot — whose
		// journal entries were reclaimed by that compaction — still
		// shows it.
		if _, err := d.CompactNow(); err != nil {
			t.Fatal(err)
		}
		rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "after"})
		c.Close()
		d2, err := New(dev)
		if err != nil {
			t.Fatalf("reboot: %v", err)
		}
		c2 := d2.SelfConn()
		defer c2.Close()
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "kept"})
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "after"})
		if err := d2.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChunkedCheckpointCompose: several incremental checkpoints with
// tiny chunks — multi-chunk fulls, increments carrying replacements
// AND tombstones — must compose with the journal into exactly the
// live registry after a dirty reboot.
func TestChunkedCheckpointCompose(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev, WithCheckpointChunkBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	for i := 0; i < 12; i++ {
		resp := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("pool-%d", i)})
		rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize})
	}
	if _, err := d.CompactNow(); err != nil { // increment 1: creations
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rt(t, c, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("pool-%d", i)})
	}
	if _, err := d.CompactNow(); err != nil { // increment 2: tombstones
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journal-only"})
	c.Close() // dirty: the last pool lives only in the journal

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, err := c2.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("pool-%d", i)}); err == nil {
			t.Fatalf("tombstoned pool-%d came back", i)
		}
	}
	for i := 4; i < 12; i++ {
		opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("pool-%d", i)})
		if len(opened.Puddles) != 2 {
			t.Fatalf("pool-%d has %d puddles, want 2", i, len(opened.Puddles))
		}
	}
	rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Checkpoints == 0 || st.CheckpointChunks == 0 || st.CheckpointSeq == 0 {
		t.Fatalf("checkpoint stats not surfaced: %+v", st)
	}
}

// TestJournalSwitchCompose: state must survive dirty reboots that
// span journal double-buffer switches — including the window where a
// compaction switched journals but its checkpoint FAILED to commit,
// so the acked mutations live split across BOTH journal regions on
// top of an older chain.
func TestJournalSwitchCompose(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "a"})
	if _, err := d.CompactNow(); err != nil { // commit; switch to journal 1
		t.Fatal(err)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "b"}) // journal 1
	half := d.ckptHalf
	d.ckptHalf = 64
	if _, err := d.CompactNow(); err == nil { // switches to journal 0, stream fails
		t.Fatal("checkpoint into a 64-byte half succeeded")
	}
	d.ckptHalf = half
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "c"}) // journal 0
	c.Close()                                                   // dirty: chain covers only "a"; "b" and "c" span both journals

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for _, name := range []string{"a", "b", "c"} {
		rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: name})
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCounterSurvivesCleanReboot regresses a sequence-tie
// bug found driving the real daemon: counters mutate WITHOUT journal
// appends, so a dirty boot's full checkpoint and the previous run's
// chain commit the SAME sequence with different recovery counters.
// Boot used to pick whichever arena half scanned first — after
// recover + dirty reboot + clean shutdown the recovery-pass counter
// went backwards. The commit-generation tie-break pins the newest.
func TestRecoveryCounterSurvivesCleanReboot(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpRecoverNow}) // Recoveries = 1
	c.Close()                                        // dirty

	d2, err := New(dev) // dirty boot: Recoveries = 2
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.SelfConn()
	st := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st.Recoveries != 2 {
		t.Fatalf("after dirty reboot Recoveries = %d, want 2", st.Recoveries)
	}
	rt(t, c2, &proto.Request{Op: proto.OpShutdown})
	c2.Close()

	d3, err := New(dev) // clean boot: no recovery, no regression
	if err != nil {
		t.Fatal(err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	st3 := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats
	if st3.Recoveries != 2 {
		t.Fatalf("after clean reboot Recoveries = %d, want 2 (counter went backwards)", st3.Recoveries)
	}
}

// TestCompactionUnderLoad: with a tiny journal, concurrent clients
// drive many compaction cycles while requests are in flight — the
// quiesce/stream split, journal switches and the reservation ticket
// chain all run under -race here — and every acked mutation must
// survive a dirty reboot.
func TestCompactionUnderLoad(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev, WithJournalCapacity(16<<10), WithCheckpointChunkBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	const workers, each = 8, 30
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.RoundTrip(&proto.Request{
					Op: proto.OpCreatePool, Name: fmt.Sprintf("load-%d-%d", w, i),
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.Checkpoints < 2 {
		t.Fatalf("expected several compaction cycles, got %d checkpoints (journal bytes %d)",
			st.Checkpoints, st.JournalBytes)
	}
	c.Close() // dirty reboot

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	st2 := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats
	if st2.Pools != workers*each {
		t.Fatalf("pools after reboot = %d, want %d", st2.Pools, workers*each)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestFullCheckpointSpillsAcrossHalves regresses the full-image
// wedge: before cross-half spilling, a registry whose FULL checkpoint
// image outgrew one arena half could never complete a full checkpoint
// again — every attempt died with errCkptFull the moment the registry
// crossed the half boundary, even though the live chain was tiny and
// nearly the whole arena sat dead. Now the head half ends in a jump
// chunk and the image continues right-justified in the dead region of
// the other half. The spilled chain must recompose across dirty
// reboots (the boot scan follows the jump); a boot whose own full
// cannot fit next to the live spilled chain defers it instead of
// failing; and once the registry shrinks, a full fits in the head
// room the right-justified spill preserved — the arena un-wedges.
func TestFullCheckpointSpillsAcrossHalves(t *testing.T) {
	// 32 KiB halves: 150 pool+puddle pairs are a ~41 KiB image —
	// bigger than one half, comfortably inside the 64 KiB arena.
	arena := []Option{WithCheckpointArena(64 << 10), WithCheckpointChunkBytes(2 << 10)}
	const pools = 150
	dev := pmem.New()
	d, err := New(dev, arena...)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	for i := 0; i < pools; i++ {
		resp := rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("wedge-%03d", i)})
		rt(t, c, &proto.Request{Op: proto.OpGetNewPuddle, Pool: resp.Pool, Size: puddle.MinSize})
	}
	if _, err := d.CheckpointFull(); err != nil {
		t.Fatalf("full checkpoint of an oversized registry: %v", err)
	}
	if d.ckptSpills.Load() == 0 {
		t.Fatal("registry image fit one half — spill path not exercised, grow the registry")
	}
	st := rt(t, c, &proto.Request{Op: proto.OpStat}).Stats
	if st.CheckpointSpills == 0 || st.RegistryGen == 0 {
		t.Fatalf("spill/generation stats not surfaced: spills=%d gen=%d", st.CheckpointSpills, st.RegistryGen)
	}
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "journal-only"})
	c.Close() // dirty: boot must jump-follow the spilled chain

	d2, err := New(dev, arena...)
	if err != nil {
		t.Fatalf("reboot over spilled chain: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	for _, i := range []int{0, pools / 2, pools - 1} {
		opened := rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: fmt.Sprintf("wedge-%03d", i)})
		if len(opened.Puddles) != 2 {
			t.Fatalf("wedge-%03d has %d puddles, want 2", i, len(opened.Puddles))
		}
	}
	rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if got := rt(t, c2, &proto.Request{Op: proto.OpStat}).Stats.Pools; got != pools+1 {
		t.Fatalf("pools after spilled reboot = %d, want %d", got, pools+1)
	}
	if err := d2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The boot-time full could not fit next to the ~41 KiB live chain
	// (the arena holds two images only while they sum under 64 KiB),
	// so it must have been deferred — not failed — leaving forceFull up.
	if !d2.forceFull {
		t.Fatal("oversized boot checkpoint neither committed nor deferred")
	}
	// Shrink the registry below the head room the right-justified
	// spill preserved; the deferred full now fits and un-wedges the
	// arena. A left-justified spill would have left a few hundred
	// bytes of head room here and wedged forever.
	for i := 20; i < pools; i++ {
		rt(t, c2, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("wedge-%03d", i)})
	}
	if _, err := d2.CheckpointFull(); err != nil {
		t.Fatalf("full checkpoint after shrink (arena still wedged): %v", err)
	}
	c2.Close() // dirty again: compose the fresh chain over the dead spill

	d3, err := New(dev, arena...)
	if err != nil {
		t.Fatalf("second reboot: %v", err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	if got := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats.Pools; got != 21 {
		t.Fatalf("pools after shrink cycle = %d, want 21", got)
	}
	rt(t, c3, &proto.Request{Op: proto.OpOpenPool, Name: "journal-only"})
	if err := d3.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestQuiescentRebootWritesZeroChunks regresses the counters-only
// checkpoint fast path: a reboot cycle in which nothing happened —
// no journal appends, no dirty entities, no recovery — must stream
// zero checkpoint chunks, at boot and at shutdown. Before the fast
// path, the always-captured counters record forced a commit chunk
// per cycle even on a completely idle daemon.
func TestQuiescentRebootWritesZeroChunks(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	// Real registry state, so the skip is not vacuously about an
	// empty store.
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "idle"})
	rt(t, c, &proto.Request{Op: proto.OpShutdown})
	c.Close()

	// Quiescent cycle: boot over the clean image, touch nothing, shut
	// down.
	d2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := d2.ckptChunks.Load(); n != 0 {
		t.Fatalf("quiescent boot streamed %d checkpoint chunks, want 0", n)
	}
	if n := d2.ckptCount.Load(); n != 0 {
		t.Fatalf("quiescent boot committed %d checkpoints, want 0", n)
	}
	d2.Shutdown()
	if n := d2.ckptChunks.Load(); n != 0 {
		t.Fatalf("quiescent reboot cycle streamed %d checkpoint chunks, want 0", n)
	}
	if n := d2.ckptCount.Load(); n != 0 {
		t.Fatalf("quiescent reboot cycle committed %d checkpoints, want 0", n)
	}

	// The skipped checkpoints must not have lost anything: the pool is
	// still there and the image still boots clean.
	d3, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c3 := d3.SelfConn()
	defer c3.Close()
	rt(t, c3, &proto.Request{Op: proto.OpOpenPool, Name: "idle"})
	if st := rt(t, c3, &proto.Request{Op: proto.OpStat}).Stats; st.Recoveries != 0 {
		t.Fatalf("clean image recovered %d times, want 0 (quiescent shutdown left device dirty)", st.Recoveries)
	}
}
