package main

import (
	"fmt"
	"math/rand"
	"time"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
	"puddles/internal/sensornet"
)

// ship: the paper's §5.3 sensor network, single-threaded, over two
// machines (device + daemon + socket each). The home node builds a
// linked list of shipVars state variables and exports it. Each cycle a
// reused sensor node imports the state eagerly, updates every variable
// in one transaction, exports the result and deletes its copy; the home
// node imports that upload lazily — at addresses its own state already
// occupies, so every pointer is rewritten — walks and sums it,
// finalizes the import and deletes it.
const (
	shipVars = 1600 // the paper's largest point
	// Variable layout: id u64 | value u64 | next pointer.
	svValue  = 8
	svNext   = 16
	svSize   = 24
	shipUser = shipVars * svSize // live variable bytes
)

type shipVar struct {
	ID    uint64
	Value uint64
	Next  ptypes.Ptr
}

type ship struct {
	seed       int64
	traced     bool
	home, sens *node
	hc, sc     *core.Client
	hconn      *connTrace
	sconn      *connTrace
	varT       ptypes.TypeID
	rootT      ptypes.TypeID
	state      []byte // the home state's export, downloaded by the sensor each cycle
	cycles     int
	sums       []uint64
	homeAddrs  pmem.Range // where the home state's list lives
}

func newShip(seed int64, traced bool) *ship {
	return &ship{seed: seed, traced: traced, sums: make([]uint64, shipVars)}
}

func (s *ship) params() map[string]any {
	return map[string]any{
		"variables": shipVars, "user_bytes": shipUser, "nodes": "home + one reused sensor",
		"cycle": "sensor: eager import, 1 tx updating every variable, export, delete; home: lazy import, walk+sum, finalize, delete",
	}
}

// registerTypes gives a node's client the state layout.
func (s *ship) registerTypes(c *core.Client) error {
	vt, err := c.RegisterLayout("perfbench.shipVar", shipVar{})
	if err != nil {
		return err
	}
	rt, err := c.RegisterType("perfbench.shipRoot", 16, []ptypes.PtrField{{Offset: 0}})
	if err != nil {
		return err
	}
	s.varT, s.rootT = vt.ID, rt.ID
	return nil
}

func (s *ship) setup() error {
	var err error
	if s.home, err = newNode("home.sock"); err != nil {
		return err
	}
	if s.sens, err = newNode("sensor.sock"); err != nil {
		return err
	}
	if s.traced {
		s.hconn, s.sconn = &connTrace{}, &connTrace{}
	}
	if s.hc, err = s.home.dial(s.hconn); err != nil {
		return err
	}
	if s.sc, err = s.sens.dial(s.sconn); err != nil {
		return err
	}
	if err := s.registerTypes(s.sc); err != nil {
		return err
	}
	if err := s.registerTypes(s.hc); err != nil {
		return err
	}
	pool, err := s.hc.CreatePool("state", 0o600)
	if err != nil {
		return err
	}
	root, err := pool.CreateRoot(s.rootT, 16)
	if err != nil {
		return err
	}
	dev := s.home.dev
	link := root // the root's first word heads the list
	s.homeAddrs = pmem.Range{Start: ^pmem.Addr(0)}
	for i := 0; i < shipVars; i++ {
		a, err := pool.Malloc(s.varT, svSize)
		if err != nil {
			return err
		}
		dev.StoreU64(a, uint64(i))
		dev.StoreU64(a+svValue, 0)
		dev.StoreU64(a+svNext, 0)
		dev.Persist(a, svSize)
		dev.StoreU64(link, uint64(a))
		dev.Persist(link, 8)
		link = a + svNext
		s.homeAddrs.Start = min(s.homeAddrs.Start, a)
		s.homeAddrs.End = max(s.homeAddrs.End, a+svSize)
	}
	s.state, err = pool.Export()
	return err
}

func (s *ship) measure(b budget, ts *traceSet) (segment, error) {
	src := sources{
		devs: []*pmem.Device{s.home.dev, s.sens.dev},
		ds:   []*daemon.Daemon{s.home.d, s.sens.d},
		cls:  []*core.Client{s.hc, s.sc},
	}
	var imp importTotals
	if ts != nil {
		src.conns = []*connTrace{s.hconn, s.sconn}
		defer s.hconn.record(ts)()
		defer s.sconn.record(ts)()
	}
	t := ts.worker(s.hconn, s.sconn)
	var seg segment
	before := src.snapshot()
	for seg.attempted < b.ops {
		seg.attempted++
		if err := s.cycle(t, &seg, &imp); err != nil {
			return seg, fmt.Errorf("cycle %d: %w", s.cycles, err)
		}
	}
	after := src.snapshot()
	seg.dur = after.at.Sub(before.at)
	seg.layers = map[string]float64{}
	if ts != nil {
		seg.layers = layerFigures(before, after, seg.done(), ts.totals())
		seg.layers["proto.nop_rtt_us"] = nopRTT(s.hc)
	}
	n := float64(imp.imports)
	seg.layers["core.ptrs_rewritten_per_import"] = ratio(float64(imp.ptrs), n)
	seg.layers["core.import_faults_per_import"] = ratio(float64(imp.faults), n)
	seg.layers["reloc.blob_bytes_per_upload"] = ratio(float64(imp.blobBytes), n)
	seg.layers["reloc.shipped_bytes_per_user_byte"] = ratio(float64(imp.blobBytes), n*shipUser)
	return seg, nil
}

// importTotals sums what the home node's imports reported.
type importTotals struct {
	imports, ptrs, faults, blobBytes int
}

// cycle runs one sensor round trip and the home-side aggregation. Any
// error aborts the run: a cycle that fails half-way leaves state the
// next cycle would trip over.
func (s *ship) cycle(t *tracer, seg *segment, imp *importTotals) error {
	op := t.begin("op.cycle")
	defer t.end(op)
	call := func(name string, fn func() error) error {
		sp := t.begin(name)
		err := fn()
		t.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	// Sensor: download, update every variable in one transaction, upload.
	var sp *core.Pool
	var upload []byte
	err := call("core.sensor_import", func() (err error) { sp, err = s.sc.ImportPool("state", s.state, false); return })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.seed + int64(s.cycles)))
	dev := s.sens.dev
	t0 := time.Now()
	err = call("core.sensor_tx", func() error {
		root, err := sp.Root()
		if err != nil {
			return err
		}
		return s.sc.Run(sp, func(tx *core.Tx) error {
			for p := pmem.Addr(dev.LoadU64(root)); p != 0; p = pmem.Addr(dev.LoadU64(p + svNext)) {
				if err := tx.SetU64(p+svValue, uint64(rng.Intn(1000))); err != nil {
					return err
				}
			}
			return nil
		})
	})
	seg.writes.add(time.Since(t0))
	if err != nil {
		return err
	}
	if err := call("core.export", func() (err error) { upload, err = sp.Export(); return }); err != nil {
		return err
	}
	if err := call("core.sensor_delete", sp.Delete); err != nil {
		return err
	}

	// Home: lazy import, walk and sum (faulting puddles in), finalize.
	var hp *core.Pool
	t1 := time.Now()
	if err := call("core.import", func() (err error) { hp, err = s.hc.ImportPool("upload", upload, true); return }); err != nil {
		return err
	}
	hdev := s.home.dev
	n := 0
	if err := call("core.walk", func() error {
		root, err := hp.Root()
		if err != nil {
			return err
		}
		for p := pmem.Addr(hdev.LoadU64(root)); p != 0; p = pmem.Addr(hdev.LoadU64(p + svNext)) {
			if n == shipVars {
				return fmt.Errorf("upload list is longer than %d variables", shipVars)
			}
			if s.homeAddrs.Contains(p) {
				return fmt.Errorf("upload variable %d at %#x points into the home state", n, uint64(p))
			}
			s.sums[n] += hdev.LoadU64(p + svValue)
			n++
		}
		return nil
	}); err != nil {
		return err
	}
	if n != shipVars {
		return fmt.Errorf("upload list has %d variables, want %d", n, shipVars)
	}
	// ImportStats is gone once the import is finalized.
	st, err := hp.ImportStats()
	if err != nil {
		return err
	}
	if err := call("core.finalize", hp.FinalizeImport); err != nil {
		return err
	}
	seg.reads.add(time.Since(t1))
	if err := call("core.home_delete", hp.Delete); err != nil {
		return err
	}
	imp.imports++
	imp.ptrs += st.PtrsRewrote
	imp.faults += st.Faults
	imp.blobBytes += len(upload)
	s.cycles++
	return nil
}

// crash kills the home daemon, reboots it and times reboot → re-dial →
// first read of the state list. Only the first reboot after the load
// counts: it finds the load's journal; a second would find it
// compacted.
func (s *ship) crash() ([]time.Duration, map[string]float64, error) {
	figs := map[string]float64{"daemon.journal_bytes_at_crash": float64(s.home.d.Stats().JournalBytes)}
	if err := s.home.kill(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	if err := s.home.boot(); err != nil {
		return nil, nil, err
	}
	figs["daemon.boot_s"] = time.Since(t0).Seconds()
	c, err := s.home.dial(nil)
	if err != nil {
		return nil, nil, err
	}
	pool, err := c.OpenPool("state")
	if err != nil {
		return nil, nil, fmt.Errorf("first read after reboot: %w", err)
	}
	root, err := pool.Root()
	if err != nil {
		return nil, nil, fmt.Errorf("first read after reboot: %w", err)
	}
	if s.home.dev.LoadU64(root) == 0 {
		return nil, nil, fmt.Errorf("home state list is empty after reboot")
	}
	rec := time.Since(t0)
	st := s.home.d.Stats()
	figs["daemon.logs_replayed"] = float64(st.LogsReplayed)
	figs["daemon.entries_applied"] = float64(st.EntriesApplied)
	s.hc = c
	return []time.Duration{rec}, figs, nil
}

// check: the home node's sums over every upload equal the sensor
// updates recomputed from the seed, and the home state survived the
// reboot unchanged.
func (s *ship) check() error {
	want := sensornet.ExpectedSums(s.cycles, shipVars, s.seed)
	for i := range want {
		if s.sums[i] != want[i] {
			return fmt.Errorf("variable %d sums to %d over %d uploads, want %d", i, s.sums[i], s.cycles, want[i])
		}
	}
	pool, err := s.hc.OpenPool("state")
	if err != nil {
		return err
	}
	root, err := pool.Root()
	if err != nil {
		return err
	}
	dev := s.home.dev
	i := uint64(0)
	for p := pmem.Addr(dev.LoadU64(root)); p != 0; p = pmem.Addr(dev.LoadU64(p + svNext)) {
		if dev.LoadU64(p) != i || dev.LoadU64(p+svValue) != 0 {
			return fmt.Errorf("home state variable %d damaged after reboot", i)
		}
		i++
	}
	if i != shipVars {
		return fmt.Errorf("home state holds %d variables after reboot, want %d", i, shipVars)
	}
	return nil
}

func (s *ship) teardown() {
	if s.home != nil {
		s.home.stop()
	}
	if s.sens != nil {
		s.sens.stop()
	}
}

// roundOps keeps rounds to a fixed amount of work: every cycle leaves
// its imports' device chunks behind (several MiB), so a round of 30
// cycles ends near 200 MiB of live heap, whatever the speed of the
// machine.
func (s *ship) roundOps() int64 { return 30 }
