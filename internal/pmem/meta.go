package pmem

// Daemon metadata region geometry. The layout of the reserved meta
// region below the global puddle space is a device property — every
// daemon generation that opens the same image must agree on where the
// checkpoint and journal structures live — so the constants are owned
// here rather than by any one daemon implementation.
//
// The layout:
//
//	1 MiB   superblock (magic + dirty flag)
//	+4 KiB  unused gap                (16 MiB, never read)
//	        metadata journal 0        (8 MiB, per-entity batches)
//	        metadata journal 1        (8 MiB, double buffer)
//	        checkpoint arena          (64 MiB, chunked chains)
//
// The gap held two whole-state snapshot slots in the first image
// format, which no daemon reads any more. It stays reserved so the
// journals and the arena keep the addresses existing images use.
// Everything fits far below the import staging area at 1 GiB.
const (
	// MetaBase is the start of the daemon metadata region (superblock).
	MetaBase Addr = 1 << 20

	// metaGap is the unread region between the superblock page and
	// journal 0.
	metaGap uint64 = 16 << 20

	// MetaJournalSize is the size of one metadata journal region.
	MetaJournalSize uint64 = 8 << 20
	// MetaJournal0 and MetaJournal1 are the double-buffered journal
	// regions: a checkpoint streams while appends continue into the
	// other one.
	MetaJournal0 Addr = MetaBase + PageSize + Addr(metaGap)
	MetaJournal1 Addr = MetaJournal0 + Addr(MetaJournalSize)

	// MetaCkptBase/MetaCkptSize bound the chunked checkpoint arena.
	// The arena holds two checkpoint chains anchored at its base and
	// midpoint; a chain is a full checkpoint followed by incremental
	// checkpoints, each streamed as CRC-guarded chunks. Chunks of one
	// chain spill across the whole half (32 MiB) instead of having to
	// fit a single fixed-size slot.
	MetaCkptBase Addr   = MetaJournal1 + Addr(MetaJournalSize)
	MetaCkptSize uint64 = 64 << 20

	// MetaEnd is the first address past the metadata region.
	MetaEnd Addr = MetaCkptBase + Addr(MetaCkptSize)
)
