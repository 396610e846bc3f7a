// Metadata persistence, journal layer: per-entity records appended to
// a double-buffered journal, compacted into chunked checkpoints
// (ckpt.go).
//
// PR 2 left the daemon with one serialization point per mutation: the
// whole `state` struct was re-gobbed and rewritten on every pool,
// puddle or log-space change, so puddle churn from one client
// re-serialized everyone's metadata (and held the global lock while
// doing it). Persistence is split into two layers, following the
// per-structure persistence argument of Cai et al. ("Understanding
// and Optimizing Persistent Memory Allocation") and MOD's goal of
// minimizing ordered persists on the mutation path:
//
//   - Journal: an append-only region. Every mutation appends one
//     *batch* — the intent record for the whole (possibly
//     multi-entity) operation: e.g. CreatePool appends {pool record,
//     root puddle record} as a single CRC-guarded entry, FreePuddle
//     appends {puddle tombstone, pool record, log-space tombstone}. A
//     torn batch fails its CRC and is invisible after a crash, so
//     multi-entity operations are atomic without ordering persists
//     between entities. There are two journal regions
//     (pmem.MetaJournal0/1): compaction switches appends to the empty
//     one under a brief quiesce and the retired region stays readable
//     until the checkpoint that covers its entries commits, so boot
//     can always compose checkpoint + retired journal + live journal.
//
//   - Checkpoints: chunked, incremental, streamed into the checkpoint
//     arena with the request path running — see ckpt.go. Boot reads
//     nothing else: an image without a decodable chain, or with a
//     gob-era journal, is refused with ErrImageFormat.
//
// The journal write is a few hundred bytes regardless of how many
// pools and puddles exist, so metadata persistence cost is
// proportional to the operation, not to the daemon's total state.
package daemon

import (
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
	"strconv"
	"sync/atomic"

	"puddles/internal/pmem"
	"puddles/internal/uid"
)

// Journal geometry. The region addresses are a device property owned
// by internal/pmem (every daemon generation must agree on them); the
// in-region format is owned here.
const (
	journalSize = pmem.MetaJournalSize

	journalMagic = 0x324c_4e52_4a50 // "PJRNL2": records in the codec.go layout
	jrnOffMagic  = 0
	jrnOffBase   = 8  // checkpoint seq this journal builds on
	jrnHdrSize   = 64 // first entry starts here (cacheline aligned)

	// gobJournalMagic ("PJRNL1") marks a journal whose records were
	// gob-encoded. Nothing reads that format; boot refuses the image.
	gobJournalMagic = 0x314c_4e52_4a50

	// Entry header: u32 payload length | u32 zero | u64 payload CRC |
	// u64 batch seq. The header is written last, after the payload is
	// flushed, so a torn append leaves an invalid header and replay
	// stops there (a header torn across cachelines fails its CRC; the
	// entry was never acked, so dropping it is correct). Keeping the
	// seq in the header rather than the payload lets the encode and CRC
	// run outside jMu — only the slot reservation serializes there;
	// even the device writes run outside the lock (see reserveGroup).
	entHdrSize = 24
)

// errJournalFull is returned when an append cannot fit even before
// compaction has had a chance to run; the operation's metadata is NOT
// durable and the client must not be acked.
var errJournalFull = errors.New("daemon: metadata journal full")

// ErrImageFormat is returned by New for a device whose metadata is in
// a format this daemon does not read. The device is left untouched.
var ErrImageFormat = errors.New("daemon: unsupported metadata image format")

// checkImageFormat refuses images whose journals hold gob-era records:
// booting one would compose an empty registry and then reset the
// journals that hold the real one.
func (d *Daemon) checkImageFormat() error {
	for _, a := range []pmem.Addr{pmem.MetaJournal0, pmem.MetaJournal1} {
		if d.dev.LoadU64(a+jrnOffMagic) == gobJournalMagic {
			return fmt.Errorf("%w: journal at %#x holds gob-encoded records (PJRNL1)", ErrImageFormat, uint64(a))
		}
	}
	return nil
}

// journalHighWater is the active-journal fill level past which request
// workers trigger compaction.
func (d *Daemon) journalHighWater() uint64 { return d.journalCap - d.journalCap/4 }

// recKind tags one persisted entity record.
type recKind uint8

const (
	recPool recKind = iota + 1
	recPuddle
	recLogSpace
	recSession
	recTypes
	recCounters
	// recPoolLink / recPoolUnlink are membership deltas: Key is the
	// pool name, Blob the raw member puddle UUID. Puddle churn journals
	// one of these instead of the pool's whole member list, keeping the
	// append O(operation) even for pools with huge membership; replay
	// composes them onto the checkpointed pool record in order.
	recPoolLink
	recPoolUnlink
	// Migration records (migrate.go). recMigOut is a source-side
	// in-flight migration keyed by raw migration UUID; recMoved is the
	// tombstone a ceded pool leaves behind (key: pool name, value: the
	// new owner's URL); recMigDone marks an adopted migration at the
	// target (key: raw migration UUID) so a re-sent commit is
	// idempotent; recStandby is a retained warm-standby copy (key: pool
	// name); recReplica is the owner's obligation to keep shipping
	// deltas to a standby (key: pool name).
	recMigOut
	recMoved
	recMigDone
	recStandby
	recReplica
)

// entRec is one per-entity record inside a journal batch: a full
// replacement value for the entity (or a tombstone). A batch — all
// records of one daemon operation, or of one checkpoint chunk — is the
// unit of journal append and replay, applied atomically; its sequence
// number lives in the entry header.
//
// The field order keeps entRec at 48 bytes and a decRec at 64, which
// FuzzDecodeBatch's allocation bound depends on.
type entRec struct {
	Key  string // pool name, raw 16-byte UUID, or session id
	Blob []byte // encoded entity value (codec.go); empty for tombstones
	Kind recKind
	Del  bool
}

// counters is the journal-persisted slice of the daemon's cumulative
// state that is not an entity registry.
type counters struct {
	NextSession    uint64
	Recoveries     uint64
	LogsReplayed   uint64
	EntriesApplied uint64
	Imports        uint64
}

// delRec builds a tombstone for one entity.
func delRec(kind recKind, key string) entRec {
	return entRec{Kind: kind, Key: key, Del: true}
}

func uuidKey(u uid.UUID) string { return string(u[:]) }

// linkRec / unlinkRec build pool-membership delta records.
func linkRec(pool string, member uid.UUID) entRec {
	return putRec(recPoolLink, pool, (*poolMember)(&member))
}

func unlinkRec(pool string, member uid.UUID) entRec {
	return putRec(recPoolUnlink, pool, (*poolMember)(&member))
}

// keyUUID reads a raw UUID key; codec.record has checked its length.
func keyUUID(k string) (u uid.UUID) {
	copy(u[:], k)
	return u
}

// countersVal snapshots the counter block. The caller holds sessMu,
// exclusive opMu, or is the single boot goroutine; the recovery
// counters are quiescent while any handler runs and are re-
// checkpointed after every recovery pass anyway.
func (d *Daemon) countersVal() *counters {
	return &counters{
		NextSession:    d.st.NextSession,
		Recoveries:     atomic.LoadUint64(&d.st.Recoveries),
		LogsReplayed:   atomic.LoadUint64(&d.st.LogsReplayed),
		EntriesApplied: atomic.LoadUint64(&d.st.EntriesApplied),
		Imports:        atomic.LoadUint64(&d.st.Imports),
	}
}

// countersRec encodes the counter block as a journal record.
func (d *Daemon) countersRec() entRec { return putRec(recCounters, "", d.countersVal()) }

// jreq is one caller's pending journal append: its pre-encoded
// payload and checksum, the error slot, and the completion signal the
// group-commit leader closes once the entry is durable (or rejected).
// lead is the promotion signal: a leader that has finished reserving
// closes it to hand leadership to a still-queued waiter. done and
// lead are disjoint — done closes only for dequeued (processed)
// entries, lead only for queued ones.
type jreq struct {
	payload []byte
	crc     uint64
	err     error
	done    chan struct{}
	lead    chan struct{}
}

// appendBatch makes recs durable as one atomic journal entry and bumps
// the metadata sequence number; the next checkpoint reads the entry
// back from the journal. Callers hold the lock of every entity named
// in recs (so per-entity journal order matches in-memory
// order); the encode and checksum run with no lock held.
//
// Appends are group-committed leader–follower style: each caller
// enqueues its pre-encoded entry, the first caller in becomes the
// leader and commits the queue through commitGroup — which reserves
// every queued entry's journal slot under jMu, hands leadership over,
// and only then copies payloads and issues ONE payload fence and ONE
// header fence for the whole group — while followers just wait for
// their completion signal. Under concurrency the flush+fence pair is
// amortized over the group AND the next group's reservation, payload
// encode and copies overlap this group's fences (only the header
// publish serializes across groups, in reservation order — see
// persistGroup); a solo caller degenerates to exactly the plain
// two-fence append.
//
// Leadership is bounded to a single lap: a leader's own entry is
// always in the queue it drains (it was enqueued before leadership
// was taken or handed over, and only the leader dequeues), so after
// one reservation the leader promotes the oldest still-queued waiter
// — or steps down — and persists its group without holding one
// client's response hostage to everyone else's churn.
func (d *Daemon) appendBatch(recs []entRec) error {
	payload := encodeBatch(recs)
	r := &jreq{
		payload: payload, crc: crc64.Checksum(payload, crcTable),
		done: make(chan struct{}), lead: make(chan struct{}),
	}
	d.jgMu.Lock()
	d.jgQueue = append(d.jgQueue, r)
	if d.jgLeader {
		d.jgMu.Unlock()
		select {
		case <-r.done: // a leader committed our entry
			return r.err
		case <-r.lead: // promoted: our entry is still queued; drain it
		}
	} else {
		d.jgLeader = true
		d.jgMu.Unlock()
	}
	// Leader: one lap, necessarily containing our own entry.
	d.jgMu.Lock()
	batch := d.jgQueue
	d.jgQueue = nil
	d.jgMu.Unlock()
	d.commitGroup(batch)
	return r.err
}

// placedEntry is one reserved journal slot: the entry, its header
// address and its assigned sequence number.
type placedEntry struct {
	r   *jreq
	ent pmem.Addr
	seq uint64
}

// groupRes is one group's reservation: its placed entries, the
// terminator slot at the group's end, and the durability ticket chain
// links (pred = the previous group's ticket, closed when that group's
// headers are durable).
type groupRes struct {
	placed []placedEntry
	term   pmem.Addr
	pred   chan struct{}
}

// commitGroup persists a batch of queued journal entries: reserve
// slots under jMu, hand leadership to the next waiter, then copy and
// fence outside every lock. Crash atomicity per entry is unchanged
// from the serial path: an entry is visible iff its header decodes
// and its payload CRC holds, and no completion signal fires before
// the final fence — a crash between the fences loses only unacked
// entries. Entries that do not fit are failed individually
// (errJournalFull) without blocking smaller entries behind them.
func (d *Daemon) commitGroup(batch []*jreq) {
	var (
		own       chan struct{}
		handedOff bool
		settled   bool
	)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		// Injected power failure (or a bug) mid-group: the machine is
		// dying. Fail this batch — an error for a possibly-durable entry
		// is exactly a real crash losing the ack — and, if leadership
		// was never handed over, everything still queued (nobody else
		// will lead it); close our durability ticket so no successor
		// group camps on it, then keep unwinding.
		var pending []*jreq
		if !handedOff {
			d.jgMu.Lock()
			pending = d.jgQueue
			d.jgQueue = nil
			d.jgLeader = false
			d.jgMu.Unlock()
		}
		if own != nil {
			close(own)
		}
		fail := pending
		if !settled {
			fail = append(batch, pending...)
		}
		for _, q := range fail {
			if q.err == nil {
				q.err = fmt.Errorf("daemon: journal append aborted: %v", rec)
			}
			close(q.done)
		}
		panic(rec)
	}()
	var res groupRes
	res, own = d.reserveGroup(batch)
	// Hand leadership to the oldest still-queued waiter (or step down)
	// BEFORE persisting: the next group reserves its slots, encodes and
	// copies its payloads while this group's flushes and fences run.
	d.jgMu.Lock()
	if len(d.jgQueue) > 0 {
		close(d.jgQueue[0].lead) // jgLeader stays true for the promotee
	} else {
		d.jgLeader = false
	}
	d.jgMu.Unlock()
	handedOff = true
	d.persistGroup(res, own)
	settled = true
	for _, q := range batch {
		close(q.done)
	}
}

// reserveGroup assigns a sequence number and journal offset to every
// entry that fits, writes the group-end terminator, and links the
// group into the durability ticket chain. Only this runs under jMu;
// payload copies, flushes and fences all happen outside the lock.
//
// The zeroed terminator header at the group's end is stored here,
// under jMu, deliberately: the successor group's first entry header
// lands on the same bytes, and its (strictly later) reservation
// orders its header store after this zero store — so the boot scan
// always stops at the true tail, never at stale bytes from a previous
// journal generation, and a successor's published header is never
// clobbered by a straggling terminator.
func (d *Daemon) reserveGroup(batch []*jreq) (groupRes, chan struct{}) {
	d.jMu.Lock()
	defer d.jMu.Unlock()
	var res groupRes
	tail := d.jTail
	for _, r := range batch {
		need := uint64(entHdrSize) + uint64(len(r.payload)) + entHdrSize // entry + terminator
		if tail+need > d.journalCap {
			d.persistErrs.Add(1)
			// The tail may still be below the high-water mark (an
			// outsized batch); force the next maybeCompact to reclaim
			// the journal so a retry of this operation can succeed.
			d.needCompact.Store(true)
			r.err = errJournalFull
			continue
		}
		d.seq++
		res.placed = append(res.placed, placedEntry{r: r, ent: d.jBase + pmem.Addr(tail), seq: d.seq})
		tail += uint64(entHdrSize) + uint64(len(r.payload))
	}
	if len(res.placed) == 0 {
		return res, nil
	}
	res.term = d.jBase + pmem.Addr(tail)
	d.dev.StoreU64(res.term, 0)
	d.dev.StoreU64(res.term+8, 0)
	d.jTail = tail
	d.jTailApprox.Store(tail)
	res.pred = d.jPrevDone
	own := make(chan struct{})
	d.jPrevDone = own
	return res, own
}

// persistGroup copies the group's payloads and publishes its headers
// with two fences total, outside every daemon lock. The journal is
// scanned as a prefix at boot, so this group's headers may become
// durable only after every predecessor group's are — otherwise a
// crash could strand acked entries behind an unreadable gap. The
// payload copies and the payload fence already overlapped the
// predecessor's work; only the header publish serializes, in
// reservation order, via the ticket chain.
func (d *Daemon) persistGroup(res groupRes, own chan struct{}) {
	if len(res.placed) == 0 {
		return
	}
	var fs pmem.FlushSet
	for _, p := range res.placed {
		d.dev.Store(p.ent+entHdrSize, p.r.payload)
		fs.Add(p.ent+entHdrSize, len(p.r.payload))
	}
	fs.Add(res.term, entHdrSize)
	fs.Flush(d.dev)
	d.dev.Fence()
	<-res.pred
	fs = pmem.FlushSet{}
	for _, p := range res.placed {
		d.dev.StoreU32(p.ent, uint32(len(p.r.payload)))
		d.dev.StoreU32(p.ent+4, 0)
		d.dev.StoreU64(p.ent+8, p.r.crc)
		d.dev.StoreU64(p.ent+16, p.seq)
		fs.Add(p.ent, entHdrSize)
	}
	fs.Flush(d.dev)
	d.dev.Fence()
	close(own)
}

// resetJournalRegion starts a fresh (empty) journal in the region at
// base, building on the checkpoint with sequence number baseSeq, and
// retargets the append cursor there. The magic is dropped first and
// re-published last, each under its own fence, so a power failure
// mid-reset leaves an invalid region (ignored at boot) rather than a
// region whose header and contents disagree. The caller must either
// hold opMu exclusively or be the single boot goroutine, and must
// guarantee every entry the region held is covered by a committed
// checkpoint.
func (d *Daemon) resetJournalRegion(base pmem.Addr, baseSeq uint64) {
	d.dev.StoreU64(base+jrnOffMagic, 0)
	d.dev.Persist(base+jrnOffMagic, 8)
	d.dev.StoreU64(base+jrnOffBase, baseSeq)
	d.dev.StoreU64(base+pmem.Addr(jrnHdrSize), 0) // first entry: len 0
	d.dev.StoreU64(base+pmem.Addr(jrnHdrSize)+8, 0)
	d.dev.Persist(base, jrnHdrSize+entHdrSize)
	d.dev.StoreU64(base+jrnOffMagic, journalMagic)
	d.dev.Persist(base+jrnOffMagic, 8)
	d.jBase = base
	d.jBaseSeq = baseSeq
	d.jTail = jrnHdrSize
	d.jTailApprox.Store(d.jTail)
}

// switchJournal retargets appends to the standby journal region,
// reset on top of the checkpoint being written (baseSeq). The caller
// (planCheckpoint) must have verified the standby's entries are
// covered by the committed checkpoint chain.
func (d *Daemon) switchJournal(baseSeq uint64) {
	other := pmem.MetaJournal0
	if d.jBase == pmem.MetaJournal0 {
		other = pmem.MetaJournal1
	}
	d.resetJournalRegion(other, baseSeq)
}

// resumeJournal points appends at end, just past the last batch boot
// replayed, and leaves both regions as they are: boot deferred its
// full checkpoint, so the journals still carry everything past the
// committed chain. With no batch past the chain every entry is
// covered, and the journals start afresh.
func (d *Daemon) resumeJournal(end journalPos) {
	if end.region == 0 {
		d.initJournals()
		return
	}
	d.jBase, d.jBaseSeq, d.jTail = end.region, end.base, end.off
	d.jTailApprox.Store(end.off)
}

// initJournals establishes the boot-time journal state after the boot
// checkpoint committed: journal 0 becomes the empty active region and
// the standby is invalidated (its entries, like journal 0's old ones,
// are covered by the checkpoint; a stale standby must not survive
// into a generation that will reuse it).
func (d *Daemon) initJournals() {
	d.dev.StoreU64(pmem.MetaJournal1+jrnOffMagic, 0)
	d.dev.Persist(pmem.MetaJournal1+jrnOffMagic, 8)
	d.resetJournalRegion(pmem.MetaJournal0, d.seq)
}

// journalPos is a journal append position: a region, the checkpoint
// sequence its base builds on, and an offset in it.
type journalPos struct {
	region pmem.Addr // 0: no position
	base   uint64
	off    uint64
}

// readJournals is the one journal reader: boot replays through it and
// every checkpoint reads its deltas through it, so both accept exactly
// the same entries. It hands fn every decodable batch with seq in
// (from, to], in sequence order across both regions (the retired
// region first — its base is older), and returns the position just
// past the last batch it handed over. An error from fn ends the read
// and is returned.
//
// A region whose base is at or past to holds nothing in range and is
// not read at all; after a journal switch, that is the region appends
// are landing in. The region at active is read no further than
// activeTail, the tail planCheckpoint captured under the exclusive
// opMu: appends past it publish their headers word by word, so a
// reader there could pair a new length and CRC with a stale seq from
// an older journal generation. Boot passes active == 0 (no appends).
//
// A region whose base exceeds the sequence reached so far was built
// on top of state we failed to recover (it can only appear after media
// corruption); its batches — membership deltas especially — must not
// be composed onto an older base, so neither it nor a later region is
// read. Within a region, a torn entry ends the read, and so does a
// batch that passes its CRC but does not decode: none of its records,
// and no later entry of the region, is handed over.
func (d *Daemon) readJournals(from, to uint64, active pmem.Addr, activeTail uint64, fn func(seq uint64, recs []decRec) error) (journalPos, error) {
	var regs []journalPos
	for _, a := range []pmem.Addr{pmem.MetaJournal0, pmem.MetaJournal1} {
		if d.dev.LoadU64(a+jrnOffMagic) != journalMagic {
			continue // invalidated standby
		}
		regs = append(regs, journalPos{region: a, base: d.dev.LoadU64(a + jrnOffBase)})
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].base < regs[j].base })
	var end journalPos
	reached := from
	for _, rg := range regs {
		if rg.base >= to {
			break
		}
		if rg.base > reached {
			d.logf("journal at %#x base seq %d exceeds recovered seq %d; ignoring it",
				uint64(rg.region), rg.base, reached)
			break
		}
		limit := uint64(journalSize)
		if rg.region == active {
			limit = activeTail
		}
		for off := uint64(jrnHdrSize); off+entHdrSize <= limit; {
			ent := rg.region + pmem.Addr(off)
			n := uint64(d.dev.LoadU32(ent))
			if n == 0 || off+entHdrSize+n > limit {
				break
			}
			payload := make([]byte, n)
			d.dev.Load(ent+entHdrSize, payload)
			if crc64.Checksum(payload, crcTable) != d.dev.LoadU64(ent+8) {
				break // torn append: the batch never happened
			}
			seq := d.dev.LoadU64(ent + 16)
			recs, err := decodeBatch(payload)
			if err != nil {
				d.logf("journal entry seq %d at %#x: %v; the region's read stops here", seq, uint64(ent), err)
				break
			}
			reached = max(reached, seq)
			off += entHdrSize + n
			if seq > from && seq <= to {
				if err := fn(seq, recs); err != nil {
					return end, err
				}
				end = journalPos{region: rg.region, base: rg.base, off: off}
			}
		}
	}
	return end, nil
}

// applyBatchTo folds one decoded journal batch (or checkpoint chunk)
// into st. Records are whole-entity replacements, so application is
// idempotent and last-writer-wins per key.
func applyBatchTo(st *state, recs []decRec) {
	for _, r := range recs {
		applyRec(st, r)
	}
}

// applyRec folds one decoded record into st. The record's kind, key
// and value type were checked by codec.record.
func applyRec(st *state, r decRec) {
	switch r.Kind {
	case recPool:
		if r.Del {
			delete(st.Pools, r.Key)
		} else {
			st.Pools[r.Key] = r.val.(*PoolRec)
		}
	case recPuddle:
		if r.Del {
			delete(st.Puddles, keyUUID(r.Key))
		} else {
			st.Puddles[keyUUID(r.Key)] = r.val.(*PuddleRec)
		}
	case recLogSpace:
		if r.Del {
			delete(st.LogSpaces, keyUUID(r.Key))
		} else {
			st.LogSpaces[keyUUID(r.Key)] = r.val.(*LogSpaceRec)
		}
	case recSession:
		id, _ := strconv.ParseUint(r.Key, 10, 64)
		if r.Del {
			delete(st.Sessions, id)
		} else {
			st.Sessions[id] = r.val.(*ImportSession)
		}
	case recPoolLink, recPoolUnlink:
		pool := st.Pools[r.Key]
		if pool == nil {
			return
		}
		u := uid.UUID(*r.val.(*poolMember))
		if r.Kind == recPoolLink {
			pool.Puddles = append(pool.Puddles, u)
			return
		}
		for i, pu := range pool.Puddles {
			if pu == u {
				pool.Puddles = append(pool.Puddles[:i], pool.Puddles[i+1:]...)
				break
			}
		}
	case recMigOut:
		if r.Del {
			delete(st.MigsOut, keyUUID(r.Key))
		} else {
			st.MigsOut[keyUUID(r.Key)] = r.val.(*MigOutRec)
		}
	case recMoved:
		if r.Del {
			delete(st.Moved, r.Key)
		} else {
			st.Moved[r.Key] = r.val.(*MovedRec)
		}
	case recMigDone:
		if r.Del {
			delete(st.MigsDone, keyUUID(r.Key))
		} else {
			st.MigsDone[keyUUID(r.Key)] = r.val.(*MigDoneRec)
		}
	case recStandby:
		if r.Del {
			delete(st.Standbys, r.Key)
		} else {
			st.Standbys[r.Key] = r.val.(*StandbyRec)
		}
	case recReplica:
		if r.Del {
			delete(st.Replicas, r.Key)
		} else {
			st.Replicas[r.Key] = r.val.(*ReplicaRec)
		}
	case recTypes:
		st.Types = *r.val.(*typeList)
	case recCounters:
		c := r.val.(*counters)
		st.NextSession = c.NextSession
		st.Recoveries = c.Recoveries
		st.LogsReplayed = c.LogsReplayed
		st.EntriesApplied = c.EntriesApplied
		st.Imports = c.Imports
	}
}
