package chaos

import (
	"fmt"

	"puddles/internal/daemon"
	"puddles/internal/proto"
	"puddles/internal/puddle"
)

// DaemonMetaChurn power-fails the daemon itself in the middle of its
// per-entity metadata journal, instead of crashing application
// transactions. The workload is pure registry churn — pool creates,
// puddle creates/frees, log-space registration, a pool delete — each
// of which appends one multi-entity journal batch. The crash offset
// sweeps across every persistence event; after each "power failure"
// the daemon reboots from checkpoint + journal and the registry must
// be bidirectionally consistent (daemon.CheckConsistency): a torn
// batch must vanish wholesale, never leave a pool without its root, a
// puddle without its pool, or a log space without its puddle.
func DaemonMetaChurn(maxOffset, stride int64) (Result, error) {
	return Sweep(Scenario{
		Name:   "daemon-meta-churn",
		Mutate: func(e *Env) error { return metaChurn(e.Daemon) },
		Check:  func(e *Env) error { return e.Daemon.CheckConsistency() },
	}, maxOffset, stride)
}

// dispatch runs one request as the superuser on d's calling goroutine,
// so an injected crash unwinds into the scenario as a panic, and turns
// an error response into an error.
func dispatch(d *daemon.Daemon, req *proto.Request) (*proto.Response, error) {
	resp := d.Dispatch(daemon.Superuser, req)
	if resp.Err != "" {
		return nil, fmt.Errorf("%v: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// metaChurn runs the registry workload against d, returning the first
// error response.
func metaChurn(d *daemon.Daemon) error {
	for p := 0; p < 3; p++ {
		pool, err := dispatch(d, &proto.Request{Op: proto.OpCreatePool, Name: fmt.Sprintf("churn-%d", p)})
		if err != nil {
			return err
		}
		var puddles []*proto.Response
		for i := 0; i < 2; i++ {
			pu, err := dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize})
			if err != nil {
				return err
			}
			puddles = append(puddles, pu)
		}
		ls, err := dispatch(d, &proto.Request{Op: proto.OpGetNewPuddle, Pool: pool.Pool, Size: puddle.MinSize, Kind: uint64(puddle.KindLogSpace)})
		if err != nil {
			return err
		}
		if _, err := dispatch(d, &proto.Request{Op: proto.OpRegLogSpace, UUID: ls.UUID}); err != nil {
			return err
		}
		// Free one ordinary puddle and the still-registered log space
		// (its registration must die in the same batch).
		if _, err := dispatch(d, &proto.Request{Op: proto.OpFreePuddle, UUID: puddles[0].UUID}); err != nil {
			return err
		}
		if _, err := dispatch(d, &proto.Request{Op: proto.OpFreePuddle, UUID: ls.UUID}); err != nil {
			return err
		}
	}
	_, err := dispatch(d, &proto.Request{Op: proto.OpDeletePool, Name: "churn-1"})
	return err
}
