package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"puddles/internal/baselines/atlas"
	"puddles/internal/baselines/gopmem"
	"puddles/internal/baselines/pmdk"
	"puddles/internal/baselines/puddleslib"
	"puddles/internal/baselines/romulus"
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/kvstore"
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
	"puddles/internal/sensornet"
	"puddles/internal/structures"
	"puddles/internal/ycsb"
)

func lib3() ([]pmlib.Lib, error) {
	pl, err := puddleslib.New()
	if err != nil {
		return nil, err
	}
	pk, err := pmdk.NewLib(2 << 30)
	if err != nil {
		return nil, err
	}
	rm, err := romulus.NewLib(1 << 30)
	if err != nil {
		return nil, err
	}
	return []pmlib.Lib{pl, pk, rm}, nil
}

func lib5() ([]pmlib.Lib, error) {
	libs, err := lib3()
	if err != nil {
		return nil, err
	}
	gp, err := gopmem.NewLib(2 << 30)
	if err != nil {
		return nil, err
	}
	at, err := atlas.NewLib(2 << 30)
	if err != nil {
		return nil, err
	}
	return append(libs, gp, at), nil
}

// --- Figure 9: linked list ---

func runFig9() error {
	n := scaled(10000000) // paper: 10 M operations
	libs, err := lib3()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, lib := range libs {
		l, err := structures.NewList(lib)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := l.Append(uint64(i)); err != nil {
				return fmt.Errorf("%s append: %w", lib.Name(), err)
			}
		}
		insert := time.Since(t0)
		t0 = time.Now()
		sum := l.Sum() // one pass visiting all n nodes
		traverse := time.Since(t0)
		if sum != uint64(n)*uint64(n-1)/2 {
			return fmt.Errorf("%s sum mismatch", lib.Name())
		}
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := l.PopHead(); err != nil {
				return fmt.Errorf("%s delete: %w", lib.Name(), err)
			}
		}
		del := time.Since(t0)
		rows = append(rows, []string{lib.Name(), dur(traverse), dur(insert), dur(del),
			perOp(traverse, n), perOp(insert, n), perOp(del, n)})
		lib.Close()
	}
	fmt.Printf("operations: %d inserts, full traversal, %d deletes\n", n, n)
	table([]string{"Library", "Traversal", "Insert", "Delete", "trav/op", "ins/op", "del/op"}, rows)
	return nil
}

// --- Figure 10: order-8 B-tree ---

func runFig10() error {
	n := scaled(1000000)
	libs, err := lib3()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, lib := range libs {
		bt, err := structures.NewBTree(lib)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := bt.Insert(scramble(uint64(i)), uint64(i)); err != nil {
				return fmt.Errorf("%s insert: %w", lib.Name(), err)
			}
		}
		insert := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, ok := bt.Search(scramble(uint64(i))); !ok {
				return fmt.Errorf("%s lost key %d", lib.Name(), i)
			}
		}
		search := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := bt.Delete(scramble(uint64(i))); err != nil {
				return fmt.Errorf("%s delete: %w", lib.Name(), err)
			}
		}
		del := time.Since(t0)
		rows = append(rows, []string{lib.Name(), dur(insert), dur(del), dur(search),
			perOp(insert, n), perOp(del, n), perOp(search, n)})
		lib.Close()
	}
	fmt.Printf("order-8 B-tree, 8 B keys and values, %d ops per phase\n", n)
	table([]string{"Library", "Insert", "Delete", "Search", "ins/op", "del/op", "srch/op"}, rows)
	return nil
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

// --- Figure 11: YCSB A-G ---

func runFig11() error {
	records := scaled(1000000) // paper: 1 M keys load + 1 M ops
	ops := scaled(1000000)
	libs, err := lib5()
	if err != nil {
		return err
	}
	header := []string{"Workload"}
	for _, lib := range libs {
		header = append(header, lib.Name())
	}
	stores := make([]*kvstore.Store, len(libs))
	value := make([]byte, 100)
	for i, lib := range libs {
		s, err := kvstore.New(lib, kvstore.Options{Buckets: nextPow2(uint64(records)), ValueSize: 100})
		if err != nil {
			return err
		}
		for _, k := range ycsb.LoadKeys(uint64(records)) {
			if err := s.Put(k, value); err != nil {
				return fmt.Errorf("%s load: %w", lib.Name(), err)
			}
		}
		stores[i] = s
	}
	var rows [][]string
	for _, w := range ycsb.Workloads() {
		row := []string{w.Name}
		for i, lib := range libs {
			g := ycsb.NewGenerator(w, uint64(records), 42)
			s := stores[i]
			buf := make([]byte, 100)
			t0 := time.Now()
			for o := 0; o < ops; o++ {
				op := g.Next()
				switch op.Kind {
				case ycsb.OpRead:
					if err := s.Get(op.Key, buf); err != nil {
						return fmt.Errorf("%s/%s read %d: %w", lib.Name(), w.Name, op.Key, err)
					}
				case ycsb.OpUpdate, ycsb.OpInsert:
					if err := s.Put(op.Key, value); err != nil {
						return fmt.Errorf("%s/%s put: %w", lib.Name(), w.Name, err)
					}
				case ycsb.OpScan:
					s.Scan(op.Key, op.ScanLen, func(uint64, []byte) {})
				case ycsb.OpRMW:
					if err := s.Get(op.Key, buf); err != nil {
						return fmt.Errorf("%s/%s rmw: %w", lib.Name(), w.Name, err)
					}
					buf[0]++
					if err := s.Put(op.Key, buf); err != nil {
						return err
					}
				}
			}
			row = append(row, time.Since(t0).Round(time.Millisecond).String())
		}
		rows = append(rows, row)
	}
	fmt.Printf("KV store: %d-record load, %d ops per workload (execution time, lower is better)\n", records, ops)
	table(header, rows)
	for _, lib := range libs {
		lib.Close()
	}
	return nil
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// --- Figure 12: multithreaded scaling ---

func runFig12() error {
	elems := scaled(1000000) // paper: 1 M-element float array
	iters := 3
	sys, err := daemon.New(pmem.New())
	if err != nil {
		return err
	}

	var counts []int
	for _, f := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -threads: %w", err)
		}
		counts = append(counts, n)
	}

	var base time.Duration
	var rows [][]string
	for _, nt := range counts {
		// Each worker gets its own client (its own cached log puddle),
		// as the paper's threads do.
		clients := make([]*core.Client, nt)
		pools := make([]*core.Pool, nt)
		arrays := make([]pmem.Addr, nt)
		per := elems / nt
		for i := range clients {
			clients[i] = core.ConnectLocal(sys)
			ti, err := clients[i].RegisterType("f.arr", 8, nil)
			if err != nil {
				return err
			}
			pool, err := clients[i].CreatePool(fmt.Sprintf("euler-%d-%d", nt, i), 0)
			if err != nil {
				return err
			}
			a, err := pool.CreateRoot(ti.ID, uint32(per*8))
			if err != nil {
				return err
			}
			pools[i], arrays[i] = pool, a
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < nt; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, pool, arr := clients[w], pools[w], arrays[w]
				dev := c.Device()
				const chunk = 256
				for it := 0; it < iters; it++ {
					for lo := 0; lo < per; lo += chunk {
						hi := lo + chunk
						if hi > per {
							hi = per
						}
						if err := c.Run(pool, func(tx *core.Tx) error {
							for e := lo; e < hi; e++ {
								at := arr + pmem.Addr(e*8)
								// "Euler's identity" stand-in arithmetic on
								// the persistent cell.
								v := dev.LoadU64(at)
								if err := tx.SetU64(at, v*2718281828+314159); err != nil {
									return err
								}
							}
							return nil
						}); err != nil {
							panic(err)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		for _, c := range clients {
			c.Close()
		}
		if base == 0 {
			base = elapsed
		}
		speedup := float64(base) / float64(elapsed) * float64(counts[0])
		rows = append(rows, []string{
			fmt.Sprintf("%d", nt), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	fmt.Printf("per-thread transactions over a %d-element persistent array, %d passes (host has %d CPUs; scaling flattens there, as the paper's does at its 20 physical cores)\n", elems, iters, runtime.NumCPU())
	table([]string{"Threads", "Time", "Throughput(norm)"}, rows)
	return nil
}

// --- Figures 13/14: sensor-network aggregation ---

func runFig14() error {
	nodes := scaled(200) // paper: 200 sensor nodes
	if nodes < 2 {
		nodes = 2
	}
	varCounts := []int{100, 200, 400, 800, 1600}
	if *scale < 0.05 {
		varCounts = []int{100, 200, 400}
	}
	var rows [][]string
	for _, vars := range varCounts {
		// Puddles path.
		home, err := sensornet.NewNode("home")
		if err != nil {
			return err
		}
		pool, err := home.BuildState(vars)
		if err != nil {
			return err
		}
		blob, err := sensornet.Distribute(pool)
		if err != nil {
			return err
		}
		uploads := make([][]byte, nodes)
		for i := 0; i < nodes; i++ {
			sn, err := sensornet.NewNode("sensor")
			if err != nil {
				return err
			}
			uploads[i], err = sn.SensorWork(blob, 100+int64(i))
			if err != nil {
				return err
			}
		}
		pSums, bd, err := home.AggregatePuddles(uploads)
		if err != nil {
			return err
		}

		// PMDK path.
		nw, err := sensornet.NewPMDKNetwork(vars)
		if err != nil {
			return err
		}
		kUploads := make([][]byte, nodes)
		for i := 0; i < nodes; i++ {
			kUploads[i], err = nw.SensorWorkPMDK(i, 100+int64(i))
			if err != nil {
				return err
			}
		}
		kSums, kDur, err := nw.AggregatePMDK(kUploads)
		if err != nil {
			return err
		}
		for i := range pSums {
			if pSums[i] != kSums[i] {
				return fmt.Errorf("aggregation mismatch at var %d", i)
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", nodes*vars/1000),
			kDur.Round(time.Millisecond).String(),
			bd.Total.Round(time.Millisecond).String(),
			bd.Import.Round(time.Millisecond).String(),
			bd.Rewrite.Round(time.Millisecond).String(),
			bd.AppLogic.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", bd.Ptrs),
			fmt.Sprintf("%.1fx", float64(kDur)/float64(bd.Total)),
		})
	}
	fmt.Printf("aggregating state from %d sensor nodes (validated against a reference)\n", nodes)
	table([]string{"kVars", "PMDK", "Puddles", "pud:Import", "pud:Rewrite", "pud:AppLogic", "pud:Ptrs", "PMDK/Puddles"}, rows)
	return nil
}
