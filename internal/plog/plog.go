// Package plog implements Puddles' crash-consistency logs: the log
// format of paper Figure 6 and the log spaces of Figure 5.
//
// A log is a sequence of self-validating entries plus metadata that
// controls recovery. Each entry carries the target address, a sequence
// number, a replay order (forward for redo, backward for undo), flags,
// and a checksum; each log carries a sequence range [lo, hi). An entry
// is live iff lo ≤ seq < hi, which lets the committer atomically
// enable and disable whole classes of entries (the three hybrid-commit
// stages publish ranges (0,2) → (2,4) → (4,4) with a single 8-byte
// store). The format is expressive enough for undo, redo, and hybrid
// logging, and structured enough that the daemon can replay it safely
// with no application involvement — replay is a plain copy of entry
// data to the entry address.
//
// Logs live in designated log puddles and can chain across several
// puddles when they outgrow one (Figure 5). A log space is a directory
// puddle listing every log the application registered with the daemon.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// Replay orders.
const (
	// OrderForward entries replay in append order (redo logging).
	OrderForward uint16 = 0
	// OrderBackward entries replay in reverse append order (undo).
	OrderBackward uint16 = 1
)

// Entry flags.
const (
	// FlagVolatile marks an entry whose target is volatile memory; the
	// daemon skips it during post-crash recovery (the volatile state is
	// gone), but the runtime applies it on transaction abort (§4.1).
	FlagVolatile uint16 = 1 << 0
)

// Conventional sequence numbers for hybrid logging (paper Fig. 7).
const (
	SeqUndo uint32 = 1
	SeqRedo uint32 = 3
)

// Conventional sequence ranges for the three commit stages.
var (
	RangeUndoOnly = [2]uint32{0, 2} // stage 1: replay undo only
	RangeRedoOnly = [2]uint32{2, 4} // stage 2: replay redo only
	RangeNone     = [2]uint32{4, 4} // stage 3: complete, replay nothing
)

const (
	logMagic = 0x31474f4c50 // "PLOG1"

	// Segment header layout (at the start of each log segment).
	lOffMagic = 0
	lOffEpoch = 8  // u64: generation, mixed into every checksum
	lOffRange = 16 // u64: lo<<32 | hi
	lOffUsed  = 24 // u64: bytes of entries in this segment
	lOffNext  = 32 // u64: global address of next segment's header, 0=end
	lOffCap   = 40 // u64: entry-area capacity of this segment
	lHdrSize  = 64

	// Entry header layout.
	eOffCk    = 0  // u64 checksum
	eOffAddr  = 8  // u64 target address
	eOffSeq   = 16 // u32
	eOffOrder = 20 // u16
	eOffFlags = 22 // u16
	eOffSize  = 24 // u64 data bytes
	// EntryHdrSize is the fixed per-entry overhead.
	EntryHdrSize = 32
)

var crcTable = crc64.MakeTable(crc64.ISO)

// Errors.
var (
	ErrBadLog   = errors.New("plog: not a formatted log")
	ErrLogFull  = errors.New("plog: log is full and no grow function was provided")
	ErrTooSmall = errors.New("plog: region too small for a log segment")
)

// Entry is one log record.
type Entry struct {
	Addr  pmem.Addr
	Seq   uint32
	Order uint16
	Flags uint16
	Data  []byte
}

func entrySpan(dataLen int) uint64 {
	return EntryHdrSize + (uint64(dataLen)+7)&^7
}

// GrowFunc supplies a fresh region (the heap of a new log puddle) when
// the log runs out of space. Libpuddles backs it with GetNewPuddle.
type GrowFunc func() (pmem.Range, error)

// Log is a handle to a (possibly multi-segment) log.
type Log struct {
	dev  *pmem.Device
	segs []pmem.Range // segs[0] holds the epoch and sequence range
}

// FormatLog initialises a log over region and returns a handle.
func FormatLog(dev *pmem.Device, region pmem.Range) (*Log, error) {
	if region.Size() < lHdrSize+EntryHdrSize+8 {
		return nil, ErrTooSmall
	}
	base := region.Start
	dev.Zero(base, lHdrSize)
	dev.StoreU64(base+lOffCap, region.Size()-lHdrSize)
	dev.StoreU64(base+lOffEpoch, 1)
	dev.Persist(base, lHdrSize)
	dev.StoreU64(base+lOffMagic, logMagic)
	dev.Persist(base+lOffMagic, 8)
	return &Log{dev: dev, segs: []pmem.Range{region}}, nil
}

// OpenLog opens a formatted log at base, following the segment chain.
func OpenLog(dev *pmem.Device, base pmem.Addr) (*Log, error) {
	l := &Log{dev: dev}
	for base != 0 {
		if dev.LoadU64(base+lOffMagic) != logMagic {
			if len(l.segs) > 0 {
				break // torn chain extension: ignore the unformatted tail
			}
			return nil, ErrBadLog
		}
		capacity := dev.LoadU64(base + lOffCap)
		l.segs = append(l.segs, pmem.Range{Start: base, End: base + pmem.Addr(lHdrSize+capacity)})
		base = pmem.Addr(dev.LoadU64(base + lOffNext))
		if len(l.segs) > 1024 {
			return nil, fmt.Errorf("plog: segment chain too long (corrupt next pointer?)")
		}
	}
	return l, nil
}

// Head returns the address of the log's first segment (its identity).
func (l *Log) Head() pmem.Addr { return l.segs[0].Start }

// Segments returns the number of chained segments.
func (l *Log) Segments() int { return len(l.segs) }

func (l *Log) epoch() uint64 { return l.dev.LoadU64(l.segs[0].Start + lOffEpoch) }

// SetRange atomically publishes the sequence range [lo, hi) and
// persists it — the stage transitions of paper Figure 7.
func (l *Log) SetRange(lo, hi uint32) {
	a := l.segs[0].Start + lOffRange
	l.dev.StoreU64(a, uint64(lo)<<32|uint64(hi))
	l.dev.Persist(a, 8)
}

// Range returns the current sequence range.
func (l *Log) Range() (lo, hi uint32) {
	w := l.dev.LoadU64(l.segs[0].Start + lOffRange)
	return uint32(w >> 32), uint32(w)
}

func (l *Log) checksum(epoch uint64, hdr []byte, data []byte) uint64 {
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], epoch)
	ck := crc64.Update(0, crcTable, eb[:])
	ck = crc64.Update(ck, crcTable, hdr)
	return crc64.Update(ck, crcTable, data)
}

// Append writes an entry, persisting it before publishing it via the
// segment's used counter. If the active segment is full and grow is
// non-nil, a new segment is chained in.
func (l *Log) Append(e Entry, grow GrowFunc) error {
	span := entrySpan(len(e.Data))
	seg := l.segs[len(l.segs)-1]
	used := l.dev.LoadU64(seg.Start + lOffUsed)
	capacity := l.dev.LoadU64(seg.Start + lOffCap)
	if used+span > capacity {
		if grow == nil {
			return ErrLogFull
		}
		region, err := grow()
		if err != nil {
			return err
		}
		if region.Size() < lHdrSize+span {
			return ErrTooSmall
		}
		// Format the new segment, then link it (link persisted last so
		// a crash mid-grow leaves a clean chain).
		base := region.Start
		l.dev.Zero(base, lHdrSize)
		l.dev.StoreU64(base+lOffCap, region.Size()-lHdrSize)
		l.dev.StoreU64(base+lOffMagic, logMagic)
		l.dev.Persist(base, lHdrSize)
		l.dev.StoreU64(seg.Start+lOffNext, uint64(base))
		l.dev.Persist(seg.Start+lOffNext, 8)
		l.segs = append(l.segs, region)
		seg = region
		used = 0
		capacity = region.Size() - lHdrSize
		if used+span > capacity {
			return ErrTooSmall
		}
	}
	at := seg.Start + lHdrSize + pmem.Addr(used)
	var hdr [EntryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[eOffAddr:], uint64(e.Addr))
	binary.LittleEndian.PutUint32(hdr[eOffSeq:], e.Seq)
	binary.LittleEndian.PutUint16(hdr[eOffOrder:], e.Order)
	binary.LittleEndian.PutUint16(hdr[eOffFlags:], e.Flags)
	binary.LittleEndian.PutUint64(hdr[eOffSize:], uint64(len(e.Data)))
	ck := l.checksum(l.epoch(), hdr[8:], e.Data)
	binary.LittleEndian.PutUint64(hdr[eOffCk:], ck)
	l.dev.Store(at, hdr[:])
	if len(e.Data) > 0 {
		l.dev.Store(at+EntryHdrSize, e.Data)
	}
	// One fence covers both the entry and the used-counter bump: a torn
	// bump is harmless because recovery re-derives validity from the
	// epoch-bound checksums (and clamps a wild counter).
	l.dev.Flush(at, int(span))
	l.dev.StoreU64(seg.Start+lOffUsed, used+span)
	l.dev.Flush(seg.Start+lOffUsed, 8)
	l.dev.Fence()
	return nil
}

// Entries returns all structurally valid entries (current epoch, good
// checksum) in append order. Sequence-range filtering is the replayer's
// job. Partially persisted entries are detected by checksum and end the
// scan of their segment, exactly like PMDK (paper §4.1).
func (l *Log) Entries() []Entry {
	epoch := l.epoch()
	var out []Entry
	for _, seg := range l.segs {
		capacity := l.dev.LoadU64(seg.Start + lOffCap)
		used := l.dev.LoadU64(seg.Start + lOffUsed)
		if used > capacity {
			used = capacity // torn used counter: clamp and let checksums decide
		}
		var off uint64
		for off+EntryHdrSize <= used {
			at := seg.Start + lHdrSize + pmem.Addr(off)
			var hdr [EntryHdrSize]byte
			l.dev.Load(at, hdr[:])
			size := binary.LittleEndian.Uint64(hdr[eOffSize:])
			span := entrySpan(int(size))
			if off+span > used {
				break
			}
			data := make([]byte, size)
			if size > 0 {
				l.dev.Load(at+EntryHdrSize, data)
			}
			want := binary.LittleEndian.Uint64(hdr[eOffCk:])
			if l.checksum(epoch, hdr[8:], data) != want {
				break
			}
			out = append(out, Entry{
				Addr:  pmem.Addr(binary.LittleEndian.Uint64(hdr[eOffAddr:])),
				Seq:   binary.LittleEndian.Uint32(hdr[eOffSeq:]),
				Order: binary.LittleEndian.Uint16(hdr[eOffOrder:]),
				Flags: binary.LittleEndian.Uint16(hdr[eOffFlags:]),
				Data:  data,
			})
			off += span
		}
	}
	return out
}

// Reset invalidates every entry: the epoch bump poisons old checksums,
// the range closes, and the segments' used counters rewind. Chained
// segments stay linked for reuse.
func (l *Log) Reset() {
	head := l.segs[0].Start
	l.dev.StoreU64(head+lOffEpoch, l.epoch()+1)
	l.dev.StoreU64(head+lOffRange, 0)
	l.dev.Persist(head+lOffEpoch, 16)
	for _, seg := range l.segs {
		l.dev.StoreU64(seg.Start+lOffUsed, 0)
		l.dev.Persist(seg.Start+lOffUsed, 8)
	}
}

// Pending reports whether the log holds any live (range-selected)
// entries — i.e. whether a crashed transaction needs recovery.
func (l *Log) Pending() bool {
	lo, hi := l.Range()
	if lo == hi {
		return false
	}
	for _, e := range l.Entries() {
		if e.Seq >= lo && e.Seq < hi {
			return true
		}
	}
	return false
}

// Replay applies the live entries of the log to the device: backward-
// order entries in reverse append order first (undo), then forward-
// order entries in append order (redo) — the recovery algorithm of
// paper §4.1. When system is true (daemon recovery), volatile-flagged
// entries are skipped. Replay leaves the log invalidated.
//
// applyFilter, when non-nil, is consulted per entry; returning false
// skips the write (the daemon uses this to enforce that recovery only
// touches addresses the crashed application could write — §4.6).
func (l *Log) Replay(system bool, applyFilter func(Entry) bool) int {
	lo, hi := l.Range()
	applied := 0
	if lo != hi {
		entries := l.Entries()
		// Flushes are write-combined: entries from one transaction often
		// target the same or neighbouring cachelines (undo+redo pairs,
		// repeated updates), and nothing needs to be durable until the
		// single fence below, so one coalesced flush pass suffices.
		var fs pmem.FlushSet
		apply := func(e Entry) {
			if e.Seq < lo || e.Seq >= hi {
				return
			}
			if system && e.Flags&FlagVolatile != 0 {
				return
			}
			if applyFilter != nil && !applyFilter(e) {
				return
			}
			l.dev.Store(e.Addr, e.Data)
			fs.Add(e.Addr, len(e.Data))
			applied++
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if entries[i].Order == OrderBackward {
				apply(entries[i])
			}
		}
		for _, e := range entries {
			if e.Order == OrderForward {
				apply(e)
			}
		}
		fs.Flush(l.dev)
		l.dev.Fence()
	}
	l.Reset()
	return applied
}

// --- Log spaces (paper Fig. 5) ---

const (
	lsEntry = 32 // u64 log head addr + 16B uuid + 8B reserved

	// A log space is a super-header describing the shard geometry,
	// followed by N independent shard directories. Each shard
	// directory has its own header (magic, mutable slot high-water,
	// capacity, shard index) and a CRC over its immutable geometry
	// fields, so a corrupt or misplaced shard is detected at open
	// instead of replaying garbage. The mutable count is deliberately
	// outside the CRC: slots publish with single 8-byte stores and must
	// stay torn-write atomic without read-modify-write of a checksum.
	spaceMagic    = 0x3243505350 // "PSPC2": sharded super-header
	slsOffMagic   = 0
	slsOffShards  = 8
	slsOffSegSize = 16
	slsOffCRC     = 24 // crc64 over shards|segSize
	slsHdrSize    = 64

	sdMagic    = 0x3144525348 // "HSRD1": one shard directory
	sdOffMagic = 0
	sdOffCount = 8  // mutable slot high-water (outside the CRC)
	sdOffCap   = 16 // immutable capacity in slots
	sdOffIdx   = 24 // immutable shard index
	sdOffCRC   = 32 // crc64 over magic|cap|idx
	sdHdrSize  = 64

	// MaxLogShards bounds the shard count a directory may declare; a
	// wild super-header cannot make open loop over millions of shards.
	MaxLogShards = 256
)

// ErrLogSpaceFull reports an exhausted log-space directory.
var ErrLogSpaceFull = errors.New("plog: log space is full")

// LogSpace is one shard directory of registered logs in a
// ShardedLogSpace. It performs no internal locking — callers serialize
// per directory (the client holds a per-shard latch; daemon recovery
// is quiesced).
type LogSpace struct {
	dev  *pmem.Device
	base pmem.Addr
	cap  int
}

func shardCRC(capacity, idx uint64) uint64 {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], sdMagic)
	binary.LittleEndian.PutUint64(b[8:], capacity)
	binary.LittleEndian.PutUint64(b[16:], idx)
	return crc64.Checksum(b[:], crcTable)
}

// formatShard initialises one shard directory over region.
func formatShard(dev *pmem.Device, region pmem.Range, idx int) (*LogSpace, error) {
	if region.Size() < sdHdrSize+lsEntry {
		return nil, ErrTooSmall
	}
	base := region.Start
	capacity := (region.Size() - sdHdrSize) / lsEntry
	dev.Zero(base, sdHdrSize)
	dev.StoreU64(base+sdOffCap, capacity)
	dev.StoreU64(base+sdOffIdx, uint64(idx))
	dev.StoreU64(base+sdOffCRC, shardCRC(capacity, uint64(idx)))
	dev.Persist(base, sdHdrSize)
	dev.StoreU64(base+sdOffMagic, sdMagic)
	dev.Persist(base+sdOffMagic, 8)
	return &LogSpace{dev: dev, base: base, cap: int(capacity)}, nil
}

// openShard validates one shard directory's header and geometry CRC.
func openShard(dev *pmem.Device, region pmem.Range, idx int) (*LogSpace, error) {
	base := region.Start
	if dev.LoadU64(base+sdOffMagic) != sdMagic {
		return nil, ErrBadLog
	}
	capacity := dev.LoadU64(base + sdOffCap)
	gotIdx := dev.LoadU64(base + sdOffIdx)
	if dev.LoadU64(base+sdOffCRC) != shardCRC(capacity, gotIdx) {
		return nil, fmt.Errorf("plog: shard %d header CRC mismatch", idx)
	}
	if gotIdx != uint64(idx) || sdHdrSize+capacity*lsEntry > region.Size() {
		return nil, fmt.Errorf("plog: shard %d geometry corrupt (idx=%d cap=%d)", idx, gotIdx, capacity)
	}
	return &LogSpace{dev: dev, base: base, cap: int(capacity)}, nil
}

func (ls *LogSpace) slotAddr(i int) pmem.Addr {
	return ls.base + sdHdrSize + pmem.Addr(i*lsEntry)
}

// AddLog registers a log (by the address of its head segment).
func (ls *LogSpace) AddLog(head pmem.Addr, id uid.UUID) error {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	// Reuse a tombstone if present.
	slot := -1
	for i := 0; i < n; i++ {
		if ls.dev.LoadU64(ls.slotAddr(i)) == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		if n >= ls.cap {
			return ErrLogSpaceFull
		}
		slot = n
	}
	a := ls.slotAddr(slot)
	ls.dev.Store(a+8, id[:])
	ls.dev.Persist(a+8, 16)
	ls.dev.StoreU64(a, uint64(head)) // address written last: publishes the slot
	ls.dev.Persist(a, 8)
	if slot == n {
		ls.dev.StoreU64(ls.base+sdOffCount, uint64(n+1))
		ls.dev.Persist(ls.base+sdOffCount, 8)
	}
	return nil
}

// RemoveLog tombstones the registration of the log at head.
func (ls *LogSpace) RemoveLog(head pmem.Addr) bool {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	for i := 0; i < n; i++ {
		a := ls.slotAddr(i)
		if pmem.Addr(ls.dev.LoadU64(a)) == head {
			ls.dev.StoreU64(a, 0)
			ls.dev.Persist(a, 8)
			return true
		}
	}
	return false
}

// Logs returns the head addresses of all registered logs.
func (ls *LogSpace) Logs() []pmem.Addr {
	n := int(ls.dev.LoadU64(ls.base + sdOffCount))
	var out []pmem.Addr
	for i := 0; i < n; i++ {
		if a := ls.dev.LoadU64(ls.slotAddr(i)); a != 0 {
			out = append(out, pmem.Addr(a))
		}
	}
	return out
}

// Capacity returns the maximum number of simultaneous registrations.
func (ls *LogSpace) Capacity() int { return ls.cap }

// --- sharded log spaces ---

// ShardedLogSpace stripes an application's log registrations across N
// independently-persisted shard directories, so concurrent workers
// register and unregister logs without sharing a directory (the client
// guards each shard with its own latch) and the daemon replays the
// shards of one crashed application in parallel.
type ShardedLogSpace struct {
	shards []*LogSpace
}

// SpaceSize returns the log-space puddle size to allocate for n shard
// directories: one page of slots per shard plus the header page,
// clamped to the minimum puddle. Client, benchmarks and chaos sweeps
// all size their directories through this so a geometry change cannot
// leave them exercising different layouts.
func SpaceSize(n int) uint64 {
	size := uint64(pmem.PageSize) * uint64(1+n)
	if size < puddle.MinSize {
		size = puddle.MinSize
	}
	return size
}

// shardedGeometry computes the per-shard segment size for a heap of
// heapSize bytes split n ways (cacheline aligned so simulated shard
// directories never share a line).
func shardedGeometry(heapSize uint64, n int) (segSize uint64, err error) {
	if n < 1 || n > MaxLogShards {
		return 0, fmt.Errorf("plog: shard count %d out of range [1,%d]", n, MaxLogShards)
	}
	segSize = (heapSize - slsHdrSize) / uint64(n) &^ 63
	if segSize < sdHdrSize+lsEntry {
		return 0, ErrTooSmall
	}
	return segSize, nil
}

// FormatShardedLogSpace initialises a sharded log space with n shard
// directories over p's heap.
func FormatShardedLogSpace(p *puddle.Puddle, n int) (*ShardedLogSpace, error) {
	dev := p.Dev
	base := p.HeapBase()
	segSize, err := shardedGeometry(p.HeapSize(), n)
	if err != nil {
		return nil, err
	}
	s := &ShardedLogSpace{shards: make([]*LogSpace, n)}
	for i := 0; i < n; i++ {
		start := base + slsHdrSize + pmem.Addr(uint64(i)*segSize)
		sh, err := formatShard(dev, pmem.Range{Start: start, End: start + pmem.Addr(segSize)}, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	// Super-header last: a crash mid-format leaves an unformatted
	// (invisible) space, exactly like puddle formatting.
	var g [16]byte
	binary.LittleEndian.PutUint64(g[0:], uint64(n))
	binary.LittleEndian.PutUint64(g[8:], segSize)
	dev.Zero(base, slsHdrSize)
	dev.StoreU64(base+slsOffShards, uint64(n))
	dev.StoreU64(base+slsOffSegSize, segSize)
	dev.StoreU64(base+slsOffCRC, crc64.Checksum(g[:], crcTable))
	dev.Persist(base, slsHdrSize)
	dev.StoreU64(base+slsOffMagic, spaceMagic)
	dev.Persist(base+slsOffMagic, 8)
	return s, nil
}

// OpenShardedLogSpace opens the log space in p via its super-header.
func OpenShardedLogSpace(p *puddle.Puddle) (*ShardedLogSpace, error) {
	dev := p.Dev
	base := p.HeapBase()
	if dev.LoadU64(base+slsOffMagic) != spaceMagic {
		return nil, ErrBadLog
	}
	n := dev.LoadU64(base + slsOffShards)
	segSize := dev.LoadU64(base + slsOffSegSize)
	var g [16]byte
	binary.LittleEndian.PutUint64(g[0:], n)
	binary.LittleEndian.PutUint64(g[8:], segSize)
	if dev.LoadU64(base+slsOffCRC) != crc64.Checksum(g[:], crcTable) {
		return nil, fmt.Errorf("plog: sharded log space geometry CRC mismatch")
	}
	if n < 1 || n > MaxLogShards || slsHdrSize+n*segSize > p.HeapSize() {
		return nil, fmt.Errorf("plog: sharded log space geometry corrupt (shards=%d seg=%d)", n, segSize)
	}
	s := &ShardedLogSpace{shards: make([]*LogSpace, n)}
	for i := 0; i < int(n); i++ {
		start := base + slsHdrSize + pmem.Addr(uint64(i)*segSize)
		sh, err := openShard(dev, pmem.Range{Start: start, End: start + pmem.Addr(segSize)}, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

// Shards returns the number of shard directories.
func (s *ShardedLogSpace) Shards() int { return len(s.shards) }

// Shard returns shard directory i (callers hold that shard's latch).
func (s *ShardedLogSpace) Shard(i int) *LogSpace { return s.shards[i] }

// AddLog registers a log in shard directory i. ErrLogSpaceFull means
// this shard is out of slots; callers may retry a sibling shard.
func (s *ShardedLogSpace) AddLog(i int, head pmem.Addr, id uid.UUID) error {
	return s.shards[i].AddLog(head, id)
}

// RemoveLog tombstones the registration of head in shard directory i.
func (s *ShardedLogSpace) RemoveLog(i int, head pmem.Addr) bool {
	return s.shards[i].RemoveLog(head)
}

// ShardLogs returns the registered log heads of shard directory i.
func (s *ShardedLogSpace) ShardLogs(i int) []pmem.Addr { return s.shards[i].Logs() }

// Logs returns the registered log heads of every shard.
func (s *ShardedLogSpace) Logs() []pmem.Addr {
	var out []pmem.Addr
	for _, sh := range s.shards {
		out = append(out, sh.Logs()...)
	}
	return out
}

// Capacity sums the registration capacity across shards.
func (s *ShardedLogSpace) Capacity() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cap
	}
	return n
}
