// Ablation benchmarks for design choices the paper calls out:
//
//   - Per-thread log-puddle caching (paper §4.1: "every thread caches
//     the log puddle used on the first transaction ... This prevents
//     Libpuddles from allocating a new puddle and adding it to the log
//     space on every transaction"). The ablation drops the cache, so
//     every transaction pays the GetNewPuddle daemon round trip.
//
//   - Hybrid vs undo-only logging (paper §5.2: the hybrid list
//     implementation performs within 5% of undo-only). The ablation
//     runs the Fig. 8 append with the tail update redo-logged versus
//     undo-logged.
//
//   - Fault-driven lazy import vs eager import (paper §4.2): the same
//     clone consumed through the on-demand cascade versus rewritten up
//     front.
package puddles_test

import (
	"bytes"
	"fmt"
	"testing"

	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/ptypes"
)

func BenchmarkAblation_LogPuddleCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "fresh-log-per-tx"
		}
		b.Run(name, func(b *testing.B) {
			d, err := daemon.New(pmem.New())
			if err != nil {
				b.Fatal(err)
			}
			c := core.ConnectLocal(d)
			defer c.Close()
			c.SetLogCache(cached)
			ti, err := c.RegisterType("abl.root", 8, nil)
			if err != nil {
				b.Fatal(err)
			}
			pool, err := c.CreatePool("p", 0)
			if err != nil {
				b.Fatal(err)
			}
			root, err := pool.CreateRoot(ti.ID, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Run(pool, func(tx *core.Tx) error {
					return tx.SetU64(root, uint64(i))
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_HybridVsUndoLogging(b *testing.B) {
	type listRoot struct {
		Head ptypes.Ptr
		Tail ptypes.Ptr
	}
	setup := func(b *testing.B) (*core.Client, *core.Pool, pmem.Addr, ptypes.TypeInfo) {
		d, err := daemon.New(pmem.New())
		if err != nil {
			b.Fatal(err)
		}
		c := core.ConnectLocal(d)
		b.Cleanup(func() { c.Close() })
		nodeT, err := c.RegisterType("abl.node", 16, []ptypes.PtrField{{Offset: 8}})
		if err != nil {
			b.Fatal(err)
		}
		rootT, err := c.RegisterLayout("abl.listRoot", listRoot{})
		if err != nil {
			b.Fatal(err)
		}
		pool, err := c.CreatePool("p", 0)
		if err != nil {
			b.Fatal(err)
		}
		root, err := pool.CreateRoot(rootT.ID, 16)
		if err != nil {
			b.Fatal(err)
		}
		return c, pool, root, nodeT
	}
	append1 := func(c *core.Client, pool *core.Pool, root pmem.Addr, nodeT ptypes.TypeInfo, hybrid bool, v uint64) error {
		return c.Run(pool, func(tx *core.Tx) error {
			n, err := tx.Alloc(nodeT.ID, 16)
			if err != nil {
				return err
			}
			dev := c.Device()
			dev.StoreU64(n, v)
			dev.StoreU64(n+8, 0)
			tail := pmem.Addr(dev.LoadU64(root + 8))
			if tail == 0 {
				if err := tx.SetU64(root, uint64(n)); err != nil {
					return err
				}
			} else if err := tx.SetU64(tail+8, uint64(n)); err != nil {
				return err
			}
			if hybrid {
				return tx.RedoSetU64(root+8, uint64(n)) // Fig. 8 line 12
			}
			return tx.SetU64(root+8, uint64(n))
		})
	}
	for _, hybrid := range []bool{false, true} {
		name := "undo-only"
		if hybrid {
			name = "hybrid-undo+redo"
		}
		b.Run(name, func(b *testing.B) {
			c, pool, root, nodeT := setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := append1(c, pool, root, nodeT, hybrid, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_LazyVsEagerImport(b *testing.B) {
	// Build one multi-puddle pool, export it once, then measure the
	// time to first byte (root access) for lazy vs fully eager imports.
	d, err := daemon.New(pmem.New())
	if err != nil {
		b.Fatal(err)
	}
	c := core.ConnectLocal(d)
	defer c.Close()
	nodeT, err := c.RegisterType("abl2.node", 1024, []ptypes.PtrField{{Offset: 8}})
	if err != nil {
		b.Fatal(err)
	}
	rootT, err := c.RegisterType("abl2.root", 16, []ptypes.PtrField{{Offset: 0}})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := c.CreatePool("src", 0)
	if err != nil {
		b.Fatal(err)
	}
	root, err := pool.CreateRoot(rootT.ID, 16)
	if err != nil {
		b.Fatal(err)
	}
	dev := c.Device()
	prev := root
	for i := 0; i < 4000; i++ { // ~4 MiB: several puddles
		a, err := pool.Malloc(nodeT.ID, 1024)
		if err != nil {
			b.Fatal(err)
		}
		dev.StoreU64(a, uint64(i))
		dev.StoreU64(prev, uint64(a))
		prev = a + 8
	}
	blob, err := pool.Export()
	if err != nil {
		b.Fatal(err)
	}
	for _, lazy := range []bool{true, false} {
		name := "eager"
		if lazy {
			name = "lazy-fault-driven"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clone, err := c.ImportPool(fmt.Sprintf("cl-%v-%d", lazy, i), blob, lazy)
				if err != nil {
					b.Fatal(err)
				}
				// Time to first byte: read the root object.
				r, err := clone.ImportedRoot()
				if err != nil {
					b.Fatal(err)
				}
				if dev.LoadU64(r) == 0 && i > 1<<30 {
					b.Fatal("unreachable")
				}
				b.StopTimer()
				if lazy {
					if err := clone.FinalizeImport(); err != nil {
						b.Fatal(err)
					}
				}
				if err := clone.Delete(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblation_ParallelRecovery measures daemon boot-time recovery
// latency over many registered log spaces as the worker pool widens.
// The dirty image is built once — 16 independent applications, each
// with an abandoned in-flight transaction carrying 32 undo entries —
// and every iteration restores it into a fresh device before booting.
func BenchmarkAblation_ParallelRecovery(b *testing.B) {
	const (
		spaces       = 16
		entriesPerTx = 32
	)
	seed := pmem.New()
	d, err := daemon.New(seed)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < spaces; i++ {
		c := core.ConnectLocal(d)
		ti, err := c.RegisterType(fmt.Sprintf("abl3.blob%d", i), 4096, nil)
		if err != nil {
			b.Fatal(err)
		}
		pool, err := c.CreatePool(fmt.Sprintf("abl3-%d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		root, err := pool.CreateRoot(ti.ID, 4096)
		if err != nil {
			b.Fatal(err)
		}
		// Abandon mid-flight: the undo log stays live, so every boot of
		// this image replays spaces×entries ranges.
		tx := c.Begin(pool)
		for e := 0; e < entriesPerTx; e++ {
			if err := tx.SetU64(root+pmem.Addr(e*128), uint64(e)); err != nil {
				b.Fatal(err)
			}
		}
	}
	var img bytes.Buffer
	if err := seed.Save(&img); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := pmem.New()
				if err := dev.Restore(bytes.NewReader(img.Bytes())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				booted, err := daemon.New(dev, daemon.WithRecoveryWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if st := booted.Stats(); st.LogsReplayed != spaces {
					b.Fatalf("replayed %d logs, want %d", st.LogsReplayed, spaces)
				}
			}
			b.ReportMetric(float64(spaces), "spaces/op")
		})
	}
}
