package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
)

// fenceLatency is the modelled sfence drain every workload runs with,
// in set-up and in the measured phase (an Optane-class figure).
const fenceLatency = 500 * time.Nanosecond

// node is one machine: a simulated PM device, a daemon serving it on a
// UNIX socket, and the clients the benchmark dialed to it.
type node struct {
	sock  string
	opts  []daemon.Option // every boot of the node uses them
	dev   *pmem.Device
	d     *daemon.Daemon
	serve chan error
	cls   []*core.Client
}

// newNode boots a daemon on a fresh device and serves it on sock (a
// path relative to the working directory, so long checkout paths do
// not hit the sun_path limit).
func newNode(sock string, opts ...daemon.Option) (*node, error) {
	dev := pmem.New()
	dev.SetFenceLatency(fenceLatency)
	n := &node{sock: sock, dev: dev, opts: opts}
	if err := n.boot(); err != nil {
		return nil, err
	}
	return n, nil
}

// boot starts a daemon on the node's device (first boot or a reboot
// after kill) and serves it.
func (n *node) boot() error {
	d, err := daemon.New(n.dev, n.opts...)
	if err != nil {
		return fmt.Errorf("daemon boot: %w", err)
	}
	_ = os.Remove(n.sock) // a killed daemon leaves its socket file behind
	l, err := net.Listen("unix", n.sock)
	if err != nil {
		d.Kill()
		return fmt.Errorf("listen %s: %w", n.sock, err)
	}
	n.d = d
	n.serve = make(chan error, 1)
	go func() { n.serve <- d.Serve(l) }()
	return nil
}

// dial connects one client. With tr set, the socket is wrapped so the
// tracer sees every read and write (proto.NewConnHello + core.Connect);
// otherwise it is a plain core.Dial.
func (n *node) dial(tr *connTrace) (*core.Client, error) {
	var c *core.Client
	if tr == nil {
		var err error
		if c, err = core.Dial("unix://"+n.sock, n.dev); err != nil {
			return nil, err
		}
	} else {
		nc, err := net.Dial("unix", n.sock)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", n.sock, err)
		}
		tr.Conn = nc
		pc := proto.NewConnHello(tr, proto.Hello{UID: uint32(os.Getuid()), GID: uint32(os.Getgid())})
		if err := pc.Handshake(); err != nil {
			pc.Close()
			return nil, err
		}
		c = core.Connect(pc, n.dev)
	}
	n.cls = append(n.cls, c)
	return c, nil
}

// closeClients drops every client of the current daemon.
func (n *node) closeClients() {
	for _, c := range n.cls {
		c.Close()
	}
	n.cls = nil
}

// kill is a power failure for the daemon: no checkpoint, no clean
// flag. The clients die with it.
func (n *node) kill() error {
	// Collect the run's garbage now, so that no collection cycle lands
	// in the timed reboot that follows.
	runtime.GC()
	n.d.Kill()
	n.d = nil
	n.closeClients()
	if err := <-n.serve; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The killed daemon's connection goroutines and the dead clients'
	// readers wind down on their own; let them finish before a reboot
	// is timed, so that they do not run inside it.
	time.Sleep(killSettle)
	return nil
}

// killSettle is how long kill waits for the torn-down goroutines.
const killSettle = 5 * time.Millisecond

// stop tears the node down at the end of a round.
func (n *node) stop() {
	if n.d != nil {
		_ = n.kill() // the round is over; its result is already taken
	}
	_ = os.Remove(n.sock)
}
