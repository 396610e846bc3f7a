package chaos

import (
	"fmt"

	"puddles/internal/daemon"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// CompactionChurn power-fails the daemon across every persistence
// event of a registry churn run sized — via a deliberately tiny
// journal and tiny checkpoint chunks — to cross compaction cycles. The
// swept crash offsets therefore land in every phase of the checkpoint
// protocol: inside the quiesce, mid-chunk while a checkpoint streams,
// on the commit chunk, mid-journal-double-buffer switch and
// mid-journal-reset. After each "power failure" the daemon reboots
// from checkpoint chain + journals; the registry must be
// bidirectionally consistent and the pre-churn sentinel pool — whose
// record travels through full checkpoint, increments and journal
// switches — must still open.
func CompactionChurn(maxOffset, stride int64) (Result, error) {
	return Sweep(Scenario{
		Name: "daemon-compaction-churn",
		Opts: []daemon.Option{
			daemon.WithJournalCapacity(8 << 10),
			daemon.WithCheckpointChunkBytes(512),
		},
		// Sentinel state created before the crash is armed: it must
		// survive every swept offset, through however many compactions
		// fire.
		Setup: func(e *Env) error {
			_, err := dispatch(e.Daemon, &proto.Request{Op: proto.OpCreatePool, Name: "sentinel"})
			return err
		},
		// Three laps of registry churn: with an 8 KiB journal this
		// crosses the high-water mark (each lap appends dozens of
		// multi-entity batches).
		Mutate: func(e *Env) error {
			for lap := 0; lap < 3; lap++ {
				if err := compactionChurnLap(e.Daemon, lap); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(e *Env) error {
			if _, err := dispatch(e.Daemon, &proto.Request{Op: proto.OpOpenPool, Name: "sentinel"}); err != nil {
				return fmt.Errorf("sentinel lost: %w", err)
			}
			return e.Daemon.CheckConsistency()
		},
	}, maxOffset, stride)
}

// compactionChurnLap is one lap of the registry workload of
// DaemonMetaChurn, with lap-unique pool names so consecutive laps
// keep appending fresh multi-entity batches.
func compactionChurnLap(d *daemon.Daemon, lap int) error {
	for p := 0; p < 3; p++ {
		pool, err := dispatch(d, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("churn-%d-%d", lap, p)})
		if err != nil {
			return err
		}
		pu, err := dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
		if err != nil {
			return err
		}
		ls, err := dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
		if err != nil {
			return err
		}
		if _, err := dispatch(d, &proto.Request{Op: proto.OpRegLogSpace, UUID: ls.UUID}); err != nil {
			return err
		}
		if _, err := dispatch(d, &proto.Request{Op: proto.OpFreePuddle, UUID: pu.UUID}); err != nil {
			return err
		}
		if _, err := dispatch(d, &proto.Request{Op: proto.OpFreePuddle, UUID: ls.UUID}); err != nil {
			return err
		}
	}
	_, err := dispatch(d, &proto.Request{Op: proto.OpDeletePool, Name: fmt.Sprintf("churn-%d-1", lap)})
	return err
}
