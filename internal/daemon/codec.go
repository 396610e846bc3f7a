// Binary record codec for the daemon's persistent metadata: journal
// entry payloads, checkpoint chunk payloads and the checkpoint commit
// trailer. The CRC entry and chunk framing around these bytes lives in
// metastore.go and ckpt.go.
//
// Every field is fixed-layout little-endian; nothing is
// self-describing, and the format is versioned by the journal magic
// (metastore.go).
//
//	u8 u32 u64     fixed width
//	bool           u8, 0 or 1
//	uuid           16 raw bytes
//	str            u32 length | bytes
//	list of T      u32 count | count × T  (an empty list decodes as nil)
//
// Batch — a journal entry payload, or a ckFull/ckRecs chunk payload:
//
//	u32 count | count × (u8 kind | bool del | str key | str blob)
//
// A tombstone (del = 1) has an empty blob. A put's blob holds the
// entity value, laid out per record kind:
//
//	recPool       str Name | uuid UUID | uuid Root | u32 OwnerUID |
//	              u32 OwnerGID | u32 Mode | list uuid Puddles
//	recPuddle     PuddleRec: uuid UUID | u64 Addr | u64 Size | u64 Kind |
//	              uuid Pool
//	recLogSpace   LogSpaceRec: uuid UUID | u64 Addr | u32 UID | u32 GID |
//	              u32 Shards
//	recSession    u64 ID | str PoolName | uuid PoolUUID | uuid RootUUID |
//	              u32 UID | u32 GID | u32 Mode | list ImportPuddle
//	              ImportPuddle: uuid UUID | u64 OldAddr | u64 Size |
//	              u64 Kind | u64 StagedAt | u64 NewAddr | bool Mapped
//	recTypes      list TypeInfo
//	              TypeInfo: u64 ID | str Name | u32 Size | list u32 Ptrs
//	recCounters   u64 NextSession | u64 Recoveries | u64 LogsReplayed |
//	              u64 EntriesApplied | u64 Imports
//	recPoolLink,
//	recPoolUnlink uuid member
//	recMigOut     uuid ID | str Pool | str Target | u32 Phase | bool Standby
//	recMoved      str Pool | str Target
//	recMigDone    uuid ID | str Pool
//	recStandby    str Pool | uuid UUID | uuid Root | u32 OwnerUID |
//	              u32 OwnerGID | u32 Mode | list PuddleRec Puddles |
//	              list u64 OwnerAddrs | list LogSpaceRec LogSpaces |
//	              u64 Epoch | str Owner
//	recReplica    str Pool | str Target | u64 Epoch
//
// Keys: a raw 16-byte UUID for recPuddle, recLogSpace, recMigOut and
// recMigDone; the decimal session id for recSession; empty for
// recTypes and recCounters; the pool name otherwise.
//
// Commit trailer — a ckCommit chunk payload: bool full.
//
// One method per value type (code) both encodes and decodes it, so the
// two directions cannot drift apart. Decoding is strict. Every length
// and count is checked against the bytes remaining before anything is
// allocated, a value must fill its blob exactly, and a batch decodes
// completely — every record's value included — or not at all. So
// anything that decodes re-encodes to the same bytes, and replay never
// applies part of a batch.
package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

// errBadRecord reports metadata bytes that do not decode. Replay
// treats it like a torn entry: the batch, and everything after it, is
// dropped.
var errBadRecord = errors.New("daemon: malformed metadata record")

// recValue is an entity value a record carries in its blob.
type recValue interface {
	code(c *codec)
}

// typeList is the recTypes value: the persisted type registry.
type typeList []ptypes.TypeInfo

// poolMember is the recPoolLink / recPoolUnlink value.
type poolMember uid.UUID

// decRec is one decoded batch record: the record as framed (its Blob
// aliases the batch bytes) and its decoded value.
type decRec struct {
	entRec
	val recValue // nil for tombstones
}

// Minimum encoded sizes, for checking counts before allocating.
const (
	uuidBytes         = 16
	minRecBytes       = 1 + 1 + 4 + 4
	puddleRecBytes    = 2*uuidBytes + 3*8
	logSpaceRecBytes  = uuidBytes + 8 + 3*4
	importPuddleBytes = uuidBytes + 5*8 + 1
	minTypeInfoBytes  = 8 + 4 + 4 + 4
)

// codec moves fields to or from the layout: it appends to b when
// encoding and consumes b when decoding. Encoding only reads the
// fields, so immutable image records may be encoded with readers
// running. The first decode failure sticks; later reads leave their
// fields zero, and the caller checks err once at the end.
type codec struct {
	dec bool
	b   []byte
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{errBadRecord}, args...)...)
	}
	c.b = nil
}

// take consumes n bytes, or fails if fewer remain.
func (c *codec) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.fail("%d bytes needed, %d left", n, len(c.b))
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

func (c *codec) uuid(u *uid.UUID) {
	if !c.dec {
		c.b = append(c.b, u[:]...)
	} else {
		copy(u[:], c.take(uuidBytes))
	}
}

func (c *codec) flag(v *bool) {
	var b uint8
	if !c.dec {
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
		return
	}
	c.u8(&b)
	if b > 1 {
		c.fail("bool byte %d", b)
	}
	*v = b == 1
}

// bytes codes a length-prefixed byte string; a decoded one aliases
// the input.
func (c *codec) bytes(v *[]byte) {
	n := uint32(len(*v))
	c.u32(&n)
	if !c.dec {
		c.b = append(c.b, *v...)
	} else {
		*v = c.take(uint64(n))
	}
}

func (c *codec) str(v *string) {
	n := uint32(len(*v))
	c.u32(&n)
	if !c.dec {
		c.b = append(c.b, *v...)
	} else {
		*v = string(c.take(uint64(n)))
	}
}

// count codes a list length n; decoding refuses one whose elements,
// at least size bytes each, the remaining bytes cannot hold.
func (c *codec) count(n, size int) int {
	v := uint32(n)
	c.u32(&v)
	if c.dec && c.err == nil && uint64(v)*uint64(size) > uint64(len(c.b)) {
		c.fail("%d elements of %d bytes, %d bytes left", v, size, len(c.b))
		return 0
	}
	return int(v)
}

// list codes a slice whose elements take at least size bytes each. An
// empty list decodes as nil.
func list[T any](c *codec, s *[]T, size int, elem func(*codec, *T)) {
	n := c.count(len(*s), size)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

func (c *codec) creds(v *Creds) {
	c.u32(&v.UID)
	c.u32(&v.GID)
}

// --- per-kind values ---

func (p *PoolRec) code(c *codec) {
	c.str(&p.Name)
	c.uuid(&p.UUID)
	c.uuid(&p.Root)
	c.u32(&p.OwnerUID)
	c.u32(&p.OwnerGID)
	c.u32(&p.Mode)
	list(c, &p.Puddles, uuidBytes, (*codec).uuid)
}

func (p *PuddleRec) code(c *codec) {
	c.uuid(&p.UUID)
	c.u64(&p.Addr)
	c.u64(&p.Size)
	c.u64(&p.Kind)
	c.uuid(&p.Pool)
}

func (ls *LogSpaceRec) code(c *codec) {
	c.uuid(&ls.UUID)
	c.u64(&ls.Addr)
	c.creds(&ls.Creds)
	c.u32(&ls.Shards)
}

func (s *ImportSession) code(c *codec) {
	c.u64(&s.ID)
	c.str(&s.PoolName)
	c.uuid(&s.PoolUUID)
	c.uuid(&s.RootUUID)
	c.creds(&s.Creds)
	c.u32(&s.Mode)
	list(c, &s.Puddles, importPuddleBytes, func(c *codec, ip *ImportPuddle) {
		c.uuid(&ip.UUID)
		c.u64(&ip.OldAddr)
		c.u64(&ip.Size)
		c.u64(&ip.Kind)
		c.u64(&ip.StagedAt)
		c.u64(&ip.NewAddr)
		c.flag(&ip.Mapped)
	})
}

func (t *typeList) code(c *codec) {
	list(c, (*[]ptypes.TypeInfo)(t), minTypeInfoBytes, func(c *codec, ti *ptypes.TypeInfo) {
		c.u64((*uint64)(&ti.ID))
		c.str(&ti.Name)
		c.u32(&ti.Size)
		list(c, &ti.Ptrs, 4, func(c *codec, pf *ptypes.PtrField) { c.u32(&pf.Offset) })
	})
}

func (ct *counters) code(c *codec) {
	c.u64(&ct.NextSession)
	c.u64(&ct.Recoveries)
	c.u64(&ct.LogsReplayed)
	c.u64(&ct.EntriesApplied)
	c.u64(&ct.Imports)
}

func (m *poolMember) code(c *codec) { c.uuid((*uid.UUID)(m)) }

func (m *MigOutRec) code(c *codec) {
	c.uuid(&m.ID)
	c.str(&m.Pool)
	c.str(&m.Target)
	c.u32(&m.Phase)
	c.flag(&m.Standby)
}

func (m *MovedRec) code(c *codec) {
	c.str(&m.Pool)
	c.str(&m.Target)
}

func (m *MigDoneRec) code(c *codec) {
	c.uuid(&m.ID)
	c.str(&m.Pool)
}

func (s *StandbyRec) code(c *codec) {
	c.str(&s.Pool)
	c.uuid(&s.UUID)
	c.uuid(&s.Root)
	c.u32(&s.OwnerUID)
	c.u32(&s.OwnerGID)
	c.u32(&s.Mode)
	list(c, &s.Puddles, puddleRecBytes, func(c *codec, p *PuddleRec) { p.code(c) })
	list(c, &s.OwnerAddrs, 8, (*codec).u64)
	list(c, &s.LogSpaces, logSpaceRecBytes, func(c *codec, ls *LogSpaceRec) { ls.code(c) })
	c.u64(&s.Epoch)
	c.str(&s.Owner)
}

func (rp *ReplicaRec) code(c *codec) {
	c.str(&rp.Pool)
	c.str(&rp.Target)
	c.u64(&rp.Epoch)
}

// newValue returns an empty value of the type kind carries.
func newValue(kind recKind) recValue {
	switch kind {
	case recPool:
		return new(PoolRec)
	case recPuddle:
		return new(PuddleRec)
	case recLogSpace:
		return new(LogSpaceRec)
	case recSession:
		return new(ImportSession)
	case recTypes:
		return new(typeList)
	case recCounters:
		return new(counters)
	case recPoolLink, recPoolUnlink:
		return new(poolMember)
	case recMigOut:
		return new(MigOutRec)
	case recMoved:
		return new(MovedRec)
	case recMigDone:
		return new(MigDoneRec)
	case recStandby:
		return new(StandbyRec)
	case recReplica:
		return new(ReplicaRec)
	}
	return nil
}

// --- records and batches ---

// putRec builds a replacement record for one entity.
func putRec(kind recKind, key string, v recValue) entRec {
	var c codec
	v.code(&c)
	return entRec{Kind: kind, Key: key, Blob: c.b}
}

// frame codes one record's batch framing.
func (c *codec) frame(r *entRec) {
	c.u8((*uint8)(&r.Kind))
	c.flag(&r.Del)
	c.str(&r.Key)
	c.bytes(&r.Blob)
}

// encodeBatch lays out the records of one journal entry or checkpoint
// chunk.
func encodeBatch(recs []entRec) []byte {
	n := 4
	for _, r := range recs {
		n += minRecBytes + len(r.Key) + len(r.Blob)
	}
	c := codec{b: make([]byte, 0, n)}
	c.count(len(recs), minRecBytes)
	for i := range recs {
		c.frame(&recs[i])
	}
	return c.b
}

// decodeBatch decodes every record of a batch, values included, so the
// caller can reject the batch as a unit before applying any of it.
func decodeBatch(p []byte) ([]decRec, error) {
	c := codec{dec: true, b: p}
	n := c.count(0, minRecBytes)
	if c.err != nil {
		return nil, c.err
	}
	recs := make([]decRec, 0, n)
	vc := new(codec)
	for i := 0; i < n; i++ {
		var er entRec
		c.frame(&er)
		if c.err != nil {
			return nil, c.err
		}
		d, err := vc.record(er)
		if err != nil {
			return nil, err
		}
		recs = append(recs, d)
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last record", errBadRecord, len(c.b))
	}
	return recs, nil
}

// record checks one record's kind, key and tombstone shape and decodes
// its value. c is reused between calls: passing the value codec
// through the recValue interface moves it to the heap, so a batch
// allocates one.
func (c *codec) record(r entRec) (decRec, error) {
	d := decRec{entRec: r}
	switch {
	case r.Kind < recPool || r.Kind > recReplica:
		return d, fmt.Errorf("%w: unknown record kind %d", errBadRecord, r.Kind)
	case isUUIDKeyed(r.Kind) && len(r.Key) != uuidBytes:
		return d, fmt.Errorf("%w: kind %d key of %d bytes", errBadRecord, r.Kind, len(r.Key))
	case r.Kind == recSession && !validSessionKey(r.Key):
		return d, fmt.Errorf("%w: session key %q", errBadRecord, r.Key)
	case (r.Kind == recTypes || r.Kind == recCounters) && r.Key != "":
		return d, fmt.Errorf("%w: kind %d has a key", errBadRecord, r.Kind)
	}
	if r.Del {
		switch r.Kind {
		case recTypes, recCounters, recPoolLink, recPoolUnlink:
			return d, fmt.Errorf("%w: tombstone of kind %d", errBadRecord, r.Kind)
		}
		if len(r.Blob) != 0 {
			return d, fmt.Errorf("%w: tombstone with a %d-byte value", errBadRecord, len(r.Blob))
		}
		return d, nil
	}
	*c = codec{dec: true, b: r.Blob}
	val := newValue(r.Kind)
	val.code(c)
	if c.err == nil && len(c.b) != 0 {
		c.fail("%d bytes after a kind %d value", len(c.b), r.Kind)
	}
	if c.err != nil {
		return d, c.err
	}
	d.val = val
	return d, nil
}

func isUUIDKeyed(kind recKind) bool {
	return kind == recPuddle || kind == recLogSpace || kind == recMigOut || kind == recMigDone
}

// validSessionKey accepts exactly the keys strconv.FormatUint writes.
func validSessionKey(key string) bool {
	id, err := strconv.ParseUint(key, 10, 64)
	return err == nil && strconv.FormatUint(id, 10) == key
}

// encodeTrailer lays out a checkpoint commit trailer.
func encodeTrailer(full bool) []byte {
	var c codec
	c.flag(&full)
	return c.b
}

// decodeTrailer reads a checkpoint commit trailer.
func decodeTrailer(p []byte) (full bool, err error) {
	c := codec{dec: true, b: p}
	c.flag(&full)
	if c.err == nil && len(c.b) != 0 {
		c.fail("%d-byte commit trailer", len(p))
	}
	return full, c.err
}
