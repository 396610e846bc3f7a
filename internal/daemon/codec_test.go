package daemon

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/uid"
)

func testUUID(b byte) uid.UUID {
	var u uid.UUID
	for i := range u {
		u[i] = b + byte(i)
	}
	return u
}

type codecCase struct {
	name string
	kind recKind
	key  string
	in   recValue
	want recValue // decoded value when it differs from in (empty lists decode as nil)
}

// codecCases covers every record kind, with the edge shapes each
// layout has: empty vs nil lists, a pool with no members, parallel
// standby lists and types with pointer fields.
func codecCases() []codecCase {
	a, b, c := testUUID(0x10), testUUID(0x40), testUUID(0x80)
	pool := func(members []uid.UUID) *PoolRec {
		return &PoolRec{Name: "pool", UUID: a, Root: b, OwnerUID: 1000, OwnerGID: 100, Mode: 0o640, Puddles: members}
	}
	types := typeList{
		{ID: ptypes.IDOf("node"), Name: "node", Size: 24, Ptrs: []ptypes.PtrField{{Offset: 0}, {Offset: 16}}},
		{ID: ptypes.IDOf("leaf"), Name: "leaf", Size: 8},
	}
	typesEmptyPtrs := typeList{{ID: 7, Name: "x", Size: 8, Ptrs: []ptypes.PtrField{}}}
	sess := &ImportSession{
		ID: 42, PoolName: "imported", PoolUUID: a, RootUUID: b, Creds: Creds{UID: 5, GID: 6}, Mode: 0o600,
		Puddles: []ImportPuddle{
			{UUID: a, OldAddr: 1 << 30, Size: 1 << 20, Kind: 1, StagedAt: 2 << 30, NewAddr: 3 << 30, Mapped: true},
			{UUID: c, OldAddr: 5 << 30, Size: 4096, Kind: 2, StagedAt: 6 << 30},
		},
	}
	standby := &StandbyRec{
		Pool: "standby", UUID: a, Root: b, OwnerUID: 3, OwnerGID: 4, Mode: 0o660,
		Puddles:    []PuddleRec{{UUID: b, Addr: 1 << 32, Size: 1 << 16, Kind: 1, Pool: a}, {UUID: c, Addr: 2 << 32, Size: 1 << 16, Kind: 2, Pool: a}},
		OwnerAddrs: []uint64{7 << 32, 8 << 32},
		LogSpaces:  []LogSpaceRec{{UUID: c, Addr: 9 << 32, Creds: Creds{UID: 3, GID: 4}, Shards: 4}},
		Epoch:      17, Owner: "tcp://owner:1",
	}
	member := poolMember(c)
	return []codecCase{
		{name: "pool", kind: recPool, key: "pool", in: pool([]uid.UUID{b, c})},
		{name: "pool/no-members", kind: recPool, key: "pool", in: pool(nil)},
		{name: "pool/empty-members", kind: recPool, key: "pool", in: pool([]uid.UUID{}), want: pool(nil)},
		{name: "puddle", kind: recPuddle, key: uuidKey(b), in: &PuddleRec{UUID: b, Addr: 1 << 33, Size: 1 << 20, Kind: 3, Pool: a}},
		{name: "logspace", kind: recLogSpace, key: uuidKey(c), in: &LogSpaceRec{UUID: c, Addr: 1 << 34, Creds: Creds{UID: 9, GID: 10}, Shards: 8}},
		{name: "session", kind: recSession, key: "42", in: sess},
		{name: "session/no-puddles", kind: recSession, key: "0", in: &ImportSession{PoolName: "p"}},
		{name: "types", kind: recTypes, in: &types},
		{name: "types/empty-ptrs", kind: recTypes, in: &typesEmptyPtrs, want: &typeList{{ID: 7, Name: "x", Size: 8}}},
		{name: "types/empty", kind: recTypes, in: &typeList{}, want: new(typeList)},
		{name: "counters", kind: recCounters, in: &counters{NextSession: 1, Recoveries: 2, LogsReplayed: 3, EntriesApplied: 4, Imports: 5}},
		{name: "link", kind: recPoolLink, key: "pool", in: &member},
		{name: "unlink", kind: recPoolUnlink, key: "pool", in: &member},
		{name: "migout", kind: recMigOut, key: uuidKey(a), in: &MigOutRec{ID: a, Pool: "p", Target: "tcp://t:1", Phase: migCommitSent, Standby: true}},
		{name: "moved", kind: recMoved, key: "p", in: &MovedRec{Pool: "p", Target: "tcp://t:1"}},
		{name: "migdone", kind: recMigDone, key: uuidKey(a), in: &MigDoneRec{ID: a, Pool: "p"}},
		{name: "standby", kind: recStandby, key: "standby", in: standby},
		{name: "standby/empty", kind: recStandby, key: "s", in: &StandbyRec{Pool: "s", OwnerAddrs: []uint64{}}, want: &StandbyRec{Pool: "s"}},
		{name: "replica", kind: recReplica, key: "p", in: &ReplicaRec{Pool: "p", Target: "tcp://t:1", Epoch: 3}},
	}
}

// codecTombstones are the deletable kinds, one tombstone each.
func codecTombstones() []entRec {
	return []entRec{
		delRec(recPool, "pool"), delRec(recPuddle, uuidKey(testUUID(1))),
		delRec(recLogSpace, uuidKey(testUUID(2))), delRec(recSession, "7"),
		delRec(recMigOut, uuidKey(testUUID(3))), delRec(recMoved, "p"),
		delRec(recMigDone, uuidKey(testUUID(4))), delRec(recStandby, "s"),
		delRec(recReplica, "r"),
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	var all []entRec
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			er := putRec(tc.kind, tc.key, tc.in)
			payload := encodeBatch([]entRec{er})
			recs, err := decodeBatch(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := tc.want
			if want == nil {
				want = tc.in
			}
			if len(recs) != 1 || recs[0].kind != tc.kind || recs[0].key != tc.key || recs[0].del {
				t.Fatalf("decoded %+v", recs)
			}
			if !reflect.DeepEqual(recs[0].val, want) {
				t.Fatalf("value\n got %#v\nwant %#v", recs[0].val, want)
			}
			if again := reencode(recs); !bytes.Equal(again, payload) {
				t.Fatalf("re-encode differs:\n%x\n%x", again, payload)
			}
		})
		all = append(all, putRec(tc.kind, tc.key, tc.in))
	}
	all = append(all, codecTombstones()...)
	payload := encodeBatch(all)
	recs, err := decodeBatch(payload)
	if err != nil {
		t.Fatalf("decode mixed batch: %v", err)
	}
	if len(recs) != len(all) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(all))
	}
	for i, r := range recs {
		if r.kind != all[i].Kind || r.key != all[i].Key || r.del != all[i].Del || (r.val == nil) != r.del {
			t.Fatalf("record %d: got %+v, want %+v", i, r, all[i])
		}
	}
	if again := reencode(recs); !bytes.Equal(again, payload) {
		t.Fatal("mixed batch does not re-encode to the same bytes")
	}
	for _, full := range []bool{false, true} {
		got, err := decodeTrailer(encodeTrailer(full))
		if err != nil || got != full {
			t.Fatalf("trailer %v: got %v, %v", full, got, err)
		}
	}
}

// TestRecordCodecRejects: bytes the encoder never writes are refused,
// never half-decoded.
func TestRecordCodecRejects(t *testing.T) {
	good := putRec(recPool, "p", &PoolRec{Name: "p"})
	cases := map[string][]byte{
		"empty":              nil,
		"count beyond bytes": {0xff, 0xff, 0xff, 0xff},
		"unknown kind":       encodeBatch([]entRec{{Kind: 99, Key: "k"}}),
		"kind zero":          encodeBatch([]entRec{{Kind: 0, Key: "k"}}),
		"truncated value":    encodeBatch([]entRec{{Kind: recPool, Key: "p", Blob: good.Blob[:len(good.Blob)-1]}}),
		"trailing value":     encodeBatch([]entRec{{Kind: recPool, Key: "p", Blob: append(append([]byte(nil), good.Blob...), 0)}}),
		"tombstone value":    encodeBatch([]entRec{{Kind: recPool, Key: "p", Del: true, Blob: []byte{1}}}),
		"types tombstone":    encodeBatch([]entRec{delRec(recTypes, "")}),
		"short uuid key":     encodeBatch([]entRec{delRec(recPuddle, "short")}),
		"session key":        encodeBatch([]entRec{delRec(recSession, "007")}),
		"keyed counters":     encodeBatch([]entRec{putRec(recCounters, "k", &counters{})}),
		"trailing batch":     append(encodeBatch([]entRec{good}), 0),
	}
	bad := encodeBatch([]entRec{putRec(recMigOut, uuidKey(testUUID(1)), &MigOutRec{})})
	bad[len(bad)-1] = 2 // the Standby bool
	cases["bool byte"] = bad
	for name, p := range cases {
		if recs, err := decodeBatch(p); !errors.Is(err, errBadRecord) {
			t.Errorf("%s: decoded %+v, err %v", name, recs, err)
		}
	}
	for _, p := range [][]byte{nil, {2}, {1, 0}} {
		if _, err := decodeTrailer(p); !errors.Is(err, errBadRecord) {
			t.Errorf("trailer %x accepted", p)
		}
	}
}

// TestTruncatedRecordRejectsBatch: a journal entry whose CRC holds but
// whose second record is cut short is dropped whole — its first record
// is not applied — and replay stops there, so a later entry is not
// applied on top of the gap either.
func TestTruncatedRecordRejectsBatch(t *testing.T) {
	dev := pmem.New()
	d, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := d.SelfConn()
	rt(t, c, &proto.Request{Op: proto.OpCreatePool, Name: "before"})
	whole := putRec(recPool, "second", &PoolRec{Name: "second", Mode: 0o600})
	cut := entRec{Kind: recPool, Key: "second", Blob: whole.Blob[:len(whole.Blob)-1]}
	if err := d.appendBatch([]entRec{putRec(recPool, "first", &PoolRec{Name: "first", Mode: 0o600}), cut}); err != nil {
		t.Fatal(err)
	}
	if err := d.appendBatch([]entRec{putRec(recPool, "later", &PoolRec{Name: "later", Mode: 0o600})}); err != nil {
		t.Fatal(err)
	}
	c.Close() // no Shutdown: boot replays the journal

	d2, err := New(dev)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	c2 := d2.SelfConn()
	defer c2.Close()
	rt(t, c2, &proto.Request{Op: proto.OpOpenPool, Name: "before"})
	d2.poolsMu.RLock()
	defer d2.poolsMu.RUnlock()
	for _, name := range []string{"first", "second", "later"} {
		if d2.st.Pools[name] != nil {
			t.Errorf("pool %q replayed from or past a malformed batch", name)
		}
	}
}

func reencode(recs []decRec) []byte {
	ers := make([]entRec, len(recs))
	for i, r := range recs {
		if r.del {
			ers[i] = delRec(r.kind, r.key)
		} else {
			ers[i] = putRec(r.kind, r.key, r.val)
		}
	}
	return encodeBatch(ers)
}

// A decode of n input bytes may allocate at most decodeAllocFactor
// bytes per input byte (a 10-byte tombstone frame becomes a 40-byte
// decRec; small values round up to allocator size classes) plus
// decodeAllocSlack for the error value a rejection builds.
const (
	decodeAllocFactor = 8
	decodeAllocSlack  = 1 << 10
)

// decodeAlloc measures the bytes one decodeBatch of data allocates.
// Decoding is deterministic, so the least of a few runs drops what
// other goroutines (the fuzzing engine's among them) allocated during
// the measurement.
func decodeAlloc(data []byte) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = decodeBatch(data) // only its allocations matter here
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeBatch: the journal and checkpoint decoder never panics,
// stays within its allocation bound, and accepts only bytes it
// re-encodes identically — as a batch or as a commit trailer.
func FuzzDecodeBatch(f *testing.F) {
	var all []entRec
	for _, tc := range codecCases() {
		er := putRec(tc.kind, tc.key, tc.in)
		f.Add(encodeBatch([]entRec{er}))
		all = append(all, er)
	}
	for _, er := range codecTombstones() {
		f.Add(encodeBatch([]entRec{er}))
	}
	f.Add(encodeBatch(all))
	f.Add(encodeBatch(nil))
	f.Add(encodeTrailer(true))
	f.Add(encodeTrailer(false))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeBatch(data)
		if got, limit := decodeAlloc(data), uint64(decodeAllocFactor*len(data)+decodeAllocSlack); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err == nil {
			if again := reencode(recs); !bytes.Equal(again, data) {
				t.Fatalf("accepted bytes re-encode differently:\n in %x\nout %x", data, again)
			}
		} else if !errors.Is(err, errBadRecord) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if full, err := decodeTrailer(data); err == nil && !bytes.Equal(encodeTrailer(full), data) {
			t.Fatalf("trailer %x accepted as %v", data, full)
		}
	})
}
