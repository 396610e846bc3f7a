package daemon_test

import (
	"net"
	"path/filepath"
	"testing"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// TestServeOverUnixSocket exercises the real transport cmd/puddled
// uses: a UNIX domain socket, multiple concurrent clients, graceful
// listener shutdown.
func TestServeOverUnixSocket(t *testing.T) {
	dev := pmem.New()
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "puddled.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(l) }()

	dial := func() *proto.Conn {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewConn(nc)
	}
	c1 := dial()
	defer c1.Close()
	c2 := dial()
	defer c2.Close()

	if _, err := c1.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "sockpool"}); err != nil {
		t.Fatal(err)
	}
	resp, err := c2.RoundTrip(&proto.Request{Op: proto.OpOpenPool, Name: "sockpool"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Addr == 0 {
		t.Fatal("no grant over socket")
	}
	// A full data-plane client over the socket (sharing the device
	// in-process, as the internal/proto package comment describes).
	cl := core.Connect(dial(), dev)
	defer cl.Close()
	ti, err := cl.RegisterType("sock.node", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cl.OpenPool("sockpool")
	if err != nil {
		t.Fatal(err)
	}
	root, err := pool.CreateRoot(ti.ID, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(pool, func(tx *core.Tx) error { return tx.SetU64(root, 5) }); err != nil {
		t.Fatal(err)
	}
	if dev.LoadU64(root) != 5 {
		t.Fatal("tx over socket lost")
	}

	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestExportImportOverSocket(t *testing.T) {
	// The puddlectl workflow: export a pool blob over the wire, import
	// it back under a new name.
	dev := pmem.New()
	d, err := daemon.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "p.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	defer l.Close()
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := proto.NewConn(nc)
	defer c.Close()

	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpCreatePool, Name: "src"}); err != nil {
		t.Fatal(err)
	}
	exp, err := c.RoundTrip(&proto.Request{Op: proto.OpExportPool, Name: "src"})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := c.RoundTrip(&proto.Request{Op: proto.OpImportPool, Name: "dst", Blob: exp.Blob})
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range imp.Puddles {
		if _, err := c.RoundTrip(&proto.Request{Op: proto.OpImportMap, Session: imp.Session, UUID: pi.UUID}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RoundTrip(&proto.Request{Op: proto.OpImportDone, Session: imp.Session}); err != nil {
		t.Fatal(err)
	}
	pools, err := c.RoundTrip(&proto.Request{Op: proto.OpListPools})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, n := range pools.Names {
		if n == "src" || n == "dst" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("pools = %v", pools.Names)
	}
}
