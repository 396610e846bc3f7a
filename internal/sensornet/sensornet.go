// Package sensornet models the paper's §5.3 sensor-network data-
// aggregation workload (Figs. 13 and 14): a home node distributes a
// pointer-rich persistent state structure to independent sensor nodes;
// each node mutates its copy transactionally; the home node aggregates
// the copies back into one structure.
//
// Every node runs its own device + daemon + client — disjoint
// persistent address spaces standing in for the paper's isolated
// docker containers. Because each copy of the state was built at the
// same addresses, importing them back into the home node forces the
// address-conflict pointer-rewrite path.
//
// The PMDK variant reproduces what the paper measures against: copies
// share the original pool's embedded UUID, so the home node must open
// them strictly one at a time and deep-copy (reallocate) every object
// into its aggregate pool.
package sensornet

import (
	"fmt"
	"math/rand"
	"time"

	"puddles/internal/baselines/pmdk"
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
	"puddles/internal/ptypes"
)

// State variable node layout: id u64 | value u64 | next Ptr.
type stateVar struct {
	ID    uint64
	Value uint64
	Next  ptypes.Ptr
}

const (
	svID    = 0
	svValue = 8
	svNext  = 16
	svSize  = 24
)

// Node is one machine in the network (own device, daemon, client).
type Node struct {
	Name string
	dev  *pmem.Device
	dmn  *daemon.Daemon
	cl   *core.Client
}

// NewNode boots an isolated machine.
func NewNode(name string) (*Node, error) {
	dev := pmem.New()
	d, err := daemon.New(dev)
	if err != nil {
		return nil, err
	}
	n := &Node{Name: name, dev: dev, dmn: d, cl: core.ConnectLocal(d)}
	if _, err := n.cl.RegisterLayout("sensornet.stateVar", stateVar{}); err != nil {
		return nil, err
	}
	if _, err := n.cl.RegisterType("sensornet.root", 16, []ptypes.PtrField{{Offset: 0}}); err != nil {
		return nil, err
	}
	return n, nil
}

// Client exposes the node's Libpuddles client.
func (n *Node) Client() *core.Client { return n.cl }

// BuildState creates the home node's state pool: a linked list of
// vars state variables rooted in the pool root.
func (n *Node) BuildState(vars int) (*core.Pool, error) {
	pool, err := n.cl.CreatePool("state", 0)
	if err != nil {
		return nil, err
	}
	rootTI, _ := n.cl.Types().Lookup(ptypes.IDOf("sensornet.root"))
	varTI, _ := n.cl.Types().Lookup(ptypes.IDOf("sensornet.stateVar"))
	root, err := pool.CreateRoot(rootTI.ID, 16)
	if err != nil {
		return nil, err
	}
	dev := n.dev
	prev := pmem.Addr(0)
	for i := 0; i < vars; i++ {
		a, err := pool.Malloc(varTI.ID, svSize)
		if err != nil {
			return nil, err
		}
		dev.StoreU64(a+svID, uint64(i))
		dev.StoreU64(a+svValue, 0)
		dev.StoreU64(a+svNext, 0)
		if prev == 0 {
			dev.StoreU64(root, uint64(a))
		} else {
			dev.StoreU64(prev+svNext, uint64(a))
		}
		prev = a
	}
	dev.Persist(root, 16)
	return pool, nil
}

// Distribute exports the state pool for download by sensor nodes.
func Distribute(pool *core.Pool) ([]byte, error) { return pool.Export() }

// SensorWork imports the state on a sensor node, applies updates in
// Puddles transactions (the paper notes nodes "can crash during
// writes" — crash consistency comes from the transactions), and
// exports the modified copy for upload.
func (n *Node) SensorWork(blob []byte, seed int64) ([]byte, error) {
	pool, err := n.cl.ImportPool("state", blob, false)
	if err != nil {
		return nil, fmt.Errorf("%s: import: %w", n.Name, err)
	}
	root, err := pool.Root()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dev := n.dev
	// Walk the list, updating every variable transactionally.
	err = n.cl.Run(pool, func(tx *core.Tx) error {
		for p := pmem.Addr(dev.LoadU64(root)); p != 0; p = pmem.Addr(dev.LoadU64(p + svNext)) {
			if err := tx.SetU64(p+svValue, uint64(rng.Intn(1000))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := pool.Export()
	if err != nil {
		return nil, err
	}
	// The node's copy is no longer needed.
	if err := pool.Delete(); err != nil {
		return nil, err
	}
	return out, nil
}

// Breakdown is the Fig. 14 cost decomposition.
type Breakdown struct {
	Import   time.Duration // registering imported puddles
	Rewrite  time.Duration // pointer rewriting (incl. faults)
	AppLogic time.Duration // traversal + aggregation arithmetic
	Total    time.Duration
	Ptrs     int // pointers rewritten
}

// AggregatePuddles imports every node's copy into the home node
// (forcing relocation: home already holds the original addresses) and
// sums each variable across copies. Returns the per-variable sums and
// the cost breakdown.
func (n *Node) AggregatePuddles(blobs [][]byte) ([]uint64, Breakdown, error) {
	var bd Breakdown
	start := time.Now()
	var sums []uint64
	for i, blob := range blobs {
		t0 := time.Now()
		pool, err := n.cl.ImportPool(fmt.Sprintf("upload-%d", i), blob, true)
		if err != nil {
			return nil, bd, fmt.Errorf("import %d: %w", i, err)
		}
		bd.Import += time.Since(t0)

		t1 := time.Now()
		ist, err := pool.ImportStats()
		if err != nil {
			return nil, bd, fmt.Errorf("import stats %d: %w", i, err)
		}
		if err := pool.FinalizeImport(); err != nil {
			return nil, bd, fmt.Errorf("finalize %d: %w", i, err)
		}
		bd.Rewrite += time.Since(t1)
		bd.Ptrs += ist.PtrsRewrote

		t2 := time.Now()
		root, err := pool.Root()
		if err != nil {
			return nil, bd, err
		}
		dev := n.dev
		idx := 0
		for p := pmem.Addr(dev.LoadU64(root)); p != 0; p = pmem.Addr(dev.LoadU64(p + svNext)) {
			if idx >= len(sums) {
				sums = append(sums, 0)
			}
			sums[idx] += dev.LoadU64(p + svValue)
			idx++
		}
		bd.AppLogic += time.Since(t2)
		if err := pool.Delete(); err != nil {
			return nil, bd, err
		}
	}
	bd.Total = time.Since(start)
	return sums, bd, nil
}

// --- PMDK variant ---

// PMDKNetwork carries the PMDK comparison: one pool image per node,
// every copy sharing the original's UUID.
type PMDKNetwork struct {
	rt       *pmdk.Runtime
	poolSize uint64
	vars     int
	original pmem.Addr
}

// NewPMDKNetwork builds the home pool with vars state variables.
func NewPMDKNetwork(vars int) (*PMDKNetwork, error) {
	poolSize := uint64(8 << 20)
	for poolSize < uint64(vars)*128+1<<20 {
		poolSize *= 2
	}
	rt := pmdk.NewRuntime()
	p, err := rt.Create(poolSize)
	if err != nil {
		return nil, err
	}
	nw := &PMDKNetwork{rt: rt, poolSize: poolSize, vars: vars, original: p.Base()}
	if err := nw.buildState(p); err != nil {
		return nil, err
	}
	p.Close()
	return nw, nil
}

// buildState: list of {id, value, next OID} nodes (fat pointers: 32 B
// per node vs 24 native).
func (nw *PMDKNetwork) buildState(p *pmdk.Pool) error {
	root, err := p.Root(16)
	if err != nil {
		return err
	}
	rootAddr := nw.rt.Direct(root)
	return p.Run(func(tx *pmdk.Tx) error {
		var prev pmem.Addr
		for i := 0; i < nw.vars; i++ {
			o, err := tx.Alloc(8 + 8 + 16)
			if err != nil {
				return err
			}
			a := nw.rt.Direct(o)
			if err := tx.SetU64(a, uint64(i)); err != nil {
				return err
			}
			if prev == 0 {
				if err := tx.SetRef(rootAddr, o); err != nil {
					return err
				}
			} else if err := tx.SetRef(prev+16, o); err != nil {
				return err
			}
			prev = a
		}
		return nil
	})
}

// imageOf snapshots a pool's bytes (the "file copy" distribution).
func (nw *PMDKNetwork) imageOf(base pmem.Addr) []byte {
	img := make([]byte, nw.poolSize)
	nw.rt.Device().Load(base, img)
	return img
}

// SensorWorkPMDK plays one sensor node: place the image, open the pool
// (same UUID — only one copy can be open), mutate, snapshot, close.
func (nw *PMDKNetwork) SensorWorkPMDK(nodeIdx int, seed int64) ([]byte, error) {
	base := nw.original + pmem.Addr(uint64(nodeIdx+1)*(nw.poolSize+pmem.PageSize))
	nw.rt.Device().Store(base, nw.imageOf(nw.original))
	p, err := nw.rt.Open(base)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	root, err := p.Root(16)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rt := nw.rt
	err = p.Run(func(tx *pmdk.Tx) error {
		for o := rt.Direct(loadOID(rt, rt.Direct(root))); o != 0; o = rt.Direct(loadOID(rt, o+16)) {
			if err := tx.SetU64(o+8, uint64(rng.Intn(1000))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return nw.imageOf(base), nil
}

func loadOID(rt *pmdk.Runtime, addr pmem.Addr) pmlib.Ref {
	dev := rt.Device()
	return pmlib.Ref{W1: dev.LoadU64(addr), W2: dev.LoadU64(addr + 8)}
}

// AggregatePMDK reproduces the paper's PMDK path: every uploaded copy
// shares the original UUID, so the home node opens them one at a time
// and reallocates each variable into a dedicated aggregate pool.
func (nw *PMDKNetwork) AggregatePMDK(images [][]byte) ([]uint64, time.Duration, error) {
	start := time.Now()
	rt := nw.rt
	aggSize := nw.poolSize * 2
	agg, err := rt.Create(aggSize)
	if err != nil {
		return nil, 0, err
	}
	defer agg.Close()
	aggRoot, err := agg.Root(16)
	if err != nil {
		return nil, 0, err
	}
	// The aggregate is itself a persistent list: one reallocated node
	// per variable (the deep copy the paper charges PMDK for).
	var aggAddrs []pmem.Addr
	err = agg.Run(func(tx *pmdk.Tx) error {
		var prev pmem.Addr
		for i := 0; i < nw.vars; i++ {
			o, err := tx.Alloc(32)
			if err != nil {
				return err
			}
			a := rt.Direct(o)
			if err := tx.SetU64(a, uint64(i)); err != nil {
				return err
			}
			if prev == 0 {
				if err := tx.SetRef(rt.Direct(aggRoot), o); err != nil {
					return err
				}
			} else if err := tx.SetRef(prev+16, o); err != nil {
				return err
			}
			aggAddrs = append(aggAddrs, a)
			prev = a
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	scratch := nw.original + pmem.Addr(uint64(len(images)+2)*(nw.poolSize+pmem.PageSize))
	for _, img := range images {
		// Sequential open/close forced by the UUID check.
		rt.Device().Store(scratch, img)
		p, err := rt.Open(scratch)
		if err != nil {
			return nil, 0, err
		}
		root, err := p.Root(16)
		if err != nil {
			p.Close()
			return nil, 0, err
		}
		// Deep-copy pass: read each source var, add into the aggregate
		// transactionally (reallocation-style writes).
		err = agg.Run(func(tx *pmdk.Tx) error {
			idx := 0
			for o := rt.Direct(loadOID(rt, rt.Direct(root))); o != 0 && idx < len(aggAddrs); o = rt.Direct(loadOID(rt, o+16)) {
				v := rt.Device().LoadU64(o + 8)
				cur := rt.Device().LoadU64(aggAddrs[idx] + 8)
				if err := tx.SetU64(aggAddrs[idx]+8, cur+v); err != nil {
					return err
				}
				idx++
			}
			return nil
		})
		p.Close()
		if err != nil {
			return nil, 0, err
		}
	}
	sums := make([]uint64, nw.vars)
	for i, a := range aggAddrs {
		sums[i] = rt.Device().LoadU64(a + 8)
	}
	return sums, time.Since(start), nil
}

// ExpectedSums recomputes the aggregation reference for validation:
// each node's RNG stream applied in order.
func ExpectedSums(nodes, vars int, seedBase int64) []uint64 {
	sums := make([]uint64, vars)
	for n := 0; n < nodes; n++ {
		rng := rand.New(rand.NewSource(seedBase + int64(n)))
		for i := 0; i < vars; i++ {
			sums[i] += uint64(rng.Intn(1000))
		}
	}
	return sums
}
