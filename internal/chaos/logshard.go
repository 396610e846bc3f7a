package chaos

import (
	"errors"
	"fmt"

	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// ShardedLogChurn is the log-directory counterpart of the transaction
// sweeps: it power-fails AddLog/RemoveLog traffic on a sharded log
// space and checks the directory's crash atomicity. After each
// injected failure the space is reopened exactly as daemon recovery
// would open it (OpenShardedLogSpace) and the recovered registration
// set must be precisely explainable:
//
//   - every acked AddLog that was not acked-removed (and is not the
//     target of the in-flight operation) is present — recovery will
//     replay it;
//   - no head that was never registered is present — recovery cannot
//     invent logs;
//   - the one in-flight Add or Remove may have landed or not (its slot
//     publishes with a single 8-byte store), but nothing else moves.
//
// shards == 1 sweeps a space with one shard directory.
func ShardedLogChurn(shards int, maxOffset, stride int64) (Result, error) {
	const (
		nLogs    = 12
		logBytes = 0x4000
	)
	var (
		space *plog.ShardedLogSpace
		heads []pmem.Addr
		st    logChurnState
	)
	return Sweep(Scenario{
		Name: fmt.Sprintf("sharded-log-churn-%d", shards),
		// Setup runs crash-free: a log-space puddle plus a log puddle
		// carved into a pile of small formatted logs to register, both
		// from the booted daemon.
		Setup: func(e *Env) error {
			spacePd, err := newPuddle(e, plog.SpaceSize(shards), puddle.KindLogSpace)
			if err != nil {
				return err
			}
			if space, err = plog.FormatShardedLogSpace(spacePd, shards); err != nil {
				return fmt.Errorf("format sharded space: %w", err)
			}
			e.Vars["space"] = uint64(spacePd.Base)
			logPd, err := newPuddle(e, puddle.DefaultSize, puddle.KindLog)
			if err != nil {
				return err
			}
			heads = make([]pmem.Addr, nLogs)
			for i := range heads {
				start := logPd.HeapBase() + pmem.Addr(i)*logBytes
				l, err := plog.FormatLog(e.Dev, pmem.Range{Start: start, End: start + logBytes})
				if err != nil {
					return fmt.Errorf("format log %d: %w", i, err)
				}
				heads[i] = l.Head()
			}
			st = logChurnState{added: map[pmem.Addr]bool{}, removed: map[pmem.Addr]bool{}}
			return nil
		},
		// Churn: register everything round-robin across shards, then
		// unregister a prefix — every persistence event in AddLog and
		// RemoveLog lands under some crash offset of the sweep.
		Mutate: func(e *Env) error {
			for i, h := range heads {
				st.inflight = h
				if err := space.AddLog(i%shards, h, uid.New()); err != nil {
					return err
				}
				st.added[h] = true
				st.inflight = 0
			}
			for i := 0; i < nLogs/2; i++ {
				h := heads[i]
				st.inflight = h
				if !space.RemoveLog(i%shards, h) {
					return fmt.Errorf("acked registration %#x missing before crash", uint64(h))
				}
				st.removed[h] = true
				st.inflight = 0
			}
			return nil
		},
		// Reopen the directory the way daemon recovery does.
		Check: func(e *Env) error {
			pd, err := puddle.Open(e.Dev, e.Addr("space"))
			if err != nil {
				return fmt.Errorf("reopen puddle: %w", err)
			}
			reopened, err := plog.OpenShardedLogSpace(pd)
			if err != nil {
				return fmt.Errorf("reopen space: %w", err)
			}
			return st.check(heads, reopened.Logs())
		},
	}, maxOffset, stride)
}

// newPuddle asks the booted daemon for a puddle of the given kind in
// the scenario's pool and opens it.
func newPuddle(e *Env, size uint64, kind puddle.Kind) (*puddle.Puddle, error) {
	resp, err := dispatch(e.Daemon, &proto.Request{Op: proto.OpGetNewPuddle, Pool: e.Pool.UUID, Size: size, Kind: uint64(kind)})
	if err != nil {
		return nil, err
	}
	return puddle.Open(e.Dev, pmem.Addr(resp.Addr))
}

// logChurnState tracks what the churn acked so the post-crash check
// can compute the set of registrations that must / may / must-not
// exist.
type logChurnState struct {
	added    map[pmem.Addr]bool // acked AddLog
	removed  map[pmem.Addr]bool // acked RemoveLog
	inflight pmem.Addr          // head of the op in progress (0 = none)
}

// check compares the recovered registrations against the acked ones.
func (st *logChurnState) check(heads, recovered []pmem.Addr) error {
	got := map[pmem.Addr]bool{}
	for _, h := range recovered {
		got[h] = true
	}
	valid := map[pmem.Addr]bool{}
	for _, h := range heads {
		valid[h] = true
	}
	var errs []error
	for h := range got {
		if !valid[h] {
			errs = append(errs, fmt.Errorf("recovered unknown log head %#x", uint64(h)))
		}
	}
	for h := range st.added {
		mustHave := !st.removed[h] && h != st.inflight
		mustNot := st.removed[h] && h != st.inflight
		switch {
		case mustHave && !got[h]:
			errs = append(errs, fmt.Errorf("acked registration %#x lost", uint64(h)))
		case mustNot && got[h]:
			errs = append(errs, fmt.Errorf("acked removal %#x came back", uint64(h)))
		}
	}
	for h := range got {
		if !st.added[h] && h != st.inflight {
			errs = append(errs, fmt.Errorf("log %#x present but never acked (and not in flight)", uint64(h)))
		}
	}
	return errors.Join(errs...)
}
