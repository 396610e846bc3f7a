package main

import (
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/core"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
	"puddles/internal/ptypes"
)

// tracedLib is the pmlib.Lib kvstore runs on in a traced run. It
// forwards to puddleslib and records a span around each transaction,
// its body, and each Set, Alloc and Free inside it, on the tracer of
// whichever worker goroutine made the call.
type tracedLib struct {
	*puddleslib.Lib
	ts *traceSet
}

func (l *tracedLib) Run(fn func(tx pmlib.Tx) error) error {
	t := l.ts.current()
	sp := t.begin("core.tx")
	err := l.Lib.Run(func(tx pmlib.Tx) error {
		b := t.begin("core.tx_body")
		err := fn(&tracedTx{Tx: tx, t: t})
		t.end(b)
		return err
	})
	t.end(sp)
	return err
}

type tracedTx struct {
	pmlib.Tx
	t *tracer
}

func (x *tracedTx) Set(addr pmem.Addr, data []byte) error {
	sp := x.t.begin("core.tx_set")
	err := x.Tx.Set(addr, data)
	x.t.end(sp)
	return err
}

func (x *tracedTx) SetU64(addr pmem.Addr, v uint64) error {
	sp := x.t.begin("core.tx_set")
	err := x.Tx.SetU64(addr, v)
	x.t.end(sp)
	return err
}

func (x *tracedTx) SetRef(addr pmem.Addr, r pmlib.Ref) error {
	sp := x.t.begin("core.tx_set")
	err := x.Tx.SetRef(addr, r)
	x.t.end(sp)
	return err
}

func (x *tracedTx) Alloc(size uint32) (pmlib.Ref, error) {
	sp := x.t.begin("core.tx_alloc")
	r, err := x.Tx.Alloc(size)
	x.t.end(sp)
	return r, err
}

func (x *tracedTx) Free(r pmlib.Ref) error {
	sp := x.t.begin("core.tx_free")
	err := x.Tx.Free(r)
	x.t.end(sp)
	return err
}

// heldLib runs each transaction's body and then leaves it open: no
// commit, no abort. A store operation through it has written and
// allocated but is not acknowledged, which is the state a power
// failure mid-transaction leaves for the daemon to roll back.
type heldLib struct {
	*puddleslib.Lib
	held []*core.Tx
}

func (l *heldLib) Run(fn func(tx pmlib.Tx) error) error {
	tx := l.Client().Begin(l.Pool())
	l.held = append(l.held, tx)
	return fn(&rawTx{tx: tx, dev: l.Device()})
}

// rawTx adapts a bare core.Tx to pmlib.Tx the way puddleslib does.
type rawTx struct {
	tx  *core.Tx
	dev *pmem.Device
}

func (x *rawTx) Set(addr pmem.Addr, data []byte) error { return x.tx.Set(addr, data) }
func (x *rawTx) SetU64(addr pmem.Addr, v uint64) error { return x.tx.SetU64(addr, v) }
func (x *rawTx) SetRef(addr pmem.Addr, r pmlib.Ref) error {
	return x.tx.SetU64(addr, r.W1)
}

func (x *rawTx) Alloc(size uint32) (pmlib.Ref, error) {
	a, err := x.tx.Alloc(ptypes.Untyped, size)
	if err != nil {
		return pmlib.Null, err
	}
	x.dev.Zero(a, int(size))
	return pmlib.Ref{W1: uint64(a)}, nil
}

func (x *rawTx) Free(r pmlib.Ref) error { return x.tx.Free(pmem.Addr(r.W1)) }
