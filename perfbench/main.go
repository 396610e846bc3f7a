// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints, as its last line, one JSON
// object with the workload's metrics:
//
//	perfbench --workload kv-mix|meta-churn|ship --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with spans recorded around every call into a
// layer and reports per-layer metrics instead. It must run from the
// repository root; it keeps its sockets and trace files under
// .bench_build/perfbench. NOTES.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// minRounds is how many times at least each run sets a workload up,
// measures it, crashes it and recovers it; set-up time is the median
// over rounds, recovery time the interquartile mean over every crash
// of the run. A workload either splits --seconds
// evenly over minRounds rounds, or, when its memory grows with the
// work done (workload.roundOps), runs rounds of a fixed number of
// operations until --seconds of load have been measured.
const minRounds = 4

// budget bounds one segment of load: it ends after dur, or, when ops
// is set, once ops operations have been attempted.
type budget struct {
	dur time.Duration
	ops int64
}

// half splits a budget between the untraced and traced segments of a
// traced round.
func (b budget) half() budget { return budget{b.dur / 2, b.ops / 2} }

// workDir holds the sockets and trace files, relative to the root.
const workDir = ".bench_build/perfbench"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// segment is one timed stretch of closed-loop load.
type segment struct {
	dur               time.Duration
	attempted, failed int64
	reads, writes     lat
	// windows cut the segment into stretches that the report takes
	// interquartile means over; a segment without windows is one window.
	windows []segment
	layers  map[string]float64 // traced segments only
}

func (s segment) done() int64 { return s.attempted - s.failed }

// rate is completed operations per second.
func (s segment) rate() float64 { return float64(s.done()) / s.dur.Seconds() }

// joinSegments pools the segments of concurrent workers.
func joinSegments(segs []segment) segment {
	var out segment
	var rs, ws []lat
	for _, s := range segs {
		out.attempted += s.attempted
		out.failed += s.failed
		rs = append(rs, s.reads)
		ws = append(ws, s.writes)
	}
	out.reads, out.writes = merge(rs...), merge(ws...)
	return out
}

// roundOut is what one round measured.
type roundOut struct {
	setup         time.Duration
	recovery      []time.Duration // one per crash
	heap          uint64
	growth        float64 // KiB of live heap per 1000 untraced ops
	plain, traced segment
	layers        map[string]float64 // crash and recovery figures
}

// workload is one benchmark scenario. A value serves one round.
type workload interface {
	// setup builds the round's state; it is timed as setup_s.
	setup() error
	// measure runs closed-loop load within b, traced when ts is non-nil.
	measure(b budget, ts *traceSet) (segment, error)
	// crash stops every daemon without a checkpoint and reboots it,
	// once or more; each returned duration runs from a reboot to the
	// first successful read. It also returns crash and recovery figures.
	crash() ([]time.Duration, map[string]float64, error)
	// check runs the correctness gates on the recovered state.
	check() error
	// teardown stops every daemon and releases the round's state.
	teardown()
	// params describes the workload's inputs for the environment record.
	params() map[string]any
	// roundOps is the operations in one round, or 0 to split the run's
	// time over minRounds rounds.
	roundOps() int64
}

// newWorkload makes round's instance of the named workload. A traced
// run dials its clients through connTrace from the start.
func newWorkload(name string, seed int64, round int, traced bool) (workload, error) {
	s := seed*1000003 + int64(round)
	switch name {
	case "kv-mix":
		return newKVMix(s, traced), nil
	case "meta-churn":
		return newMetaChurn(s, traced), nil
	case "ship":
		return newShip(s, traced), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-mix, meta-churn or ship)", name)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "kv-mix, meta-churn or ship")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	w0, err := newWorkload(o.workload, o.seed, 0, false)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(workloadProcs[o.workload])
	env, err := environment(o)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.Chdir(dir); err != nil {
		return err
	}

	total := time.Duration(o.seconds * float64(time.Second))
	b := budget{ops: w0.roundOps()}
	if b.ops == 0 {
		b.dur = total / minRounds
	}
	env["params"] = w0.params()
	var outs []roundOut
	var ts *traceSet
	var measured time.Duration
	for r := 0; r < minRounds || (b.ops > 0 && measured < total); r++ {
		if o.trace {
			ts = newTraceSet() // per round: each round's figures stand alone
		}
		w, _ := newWorkload(o.workload, o.seed, r, o.trace)
		out, err := runRound(w, b, ts, r%2 == 1)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", o.workload, r, err)
		}
		outs = append(outs, out)
		measured += out.plain.dur + out.traced.dur
	}
	env["rounds"] = len(outs)
	if ts != nil {
		// The last round's spans are written out, over the previous run's.
		name := fmt.Sprintf("trace-%s.jsonl", o.workload)
		if err := ts.write(filepath.Join("..", name)); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return report(os.Stdout, o, env, outs)
}

// runRound sets w up, measures it, crashes and recovers it, and checks
// it. Gate failures are errors: a run with wrong output prints no result.
// A traced round measures an untraced and a traced half; tracedFirst
// swaps their order, so that over a run neither half always comes
// second in a round whose later work is slower.
func runRound(w workload, b budget, ts *traceSet, tracedFirst bool) (roundOut, error) {
	var out roundOut
	defer w.teardown()
	runtime.GC() // the last round's garbage is not this set-up's cost
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return out, fmt.Errorf("setup: %w", err)
	}
	out.setup = time.Since(t0)

	plain := b
	if ts != nil {
		plain = b.half()
	}
	var err error
	measurePlain := func() error {
		h0 := liveHeap()
		if out.plain, err = w.measure(plain, nil); err != nil {
			return err
		}
		out.heap = liveHeap()
		out.growth = ratio(float64(int64(out.heap)-int64(h0))/1024, float64(out.plain.done())/1000)
		return nil
	}
	measureTraced := func() error {
		if ts == nil {
			return nil
		}
		out.traced, err = w.measure(budget{b.dur - plain.dur, b.ops - plain.ops}, ts)
		return err
	}
	first, second := measurePlain, measureTraced
	if ts != nil && tracedFirst {
		first, second = second, first
	}
	if err := first(); err != nil {
		return out, err
	}
	if err := second(); err != nil {
		return out, err
	}
	if out.recovery, out.layers, err = w.crash(); err != nil {
		return out, fmt.Errorf("crash and recovery: %w", err)
	}
	if err := w.check(); err != nil {
		return out, fmt.Errorf("correctness gate: %w", err)
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the environment record, a readable table and, last,
// the JSON result line.
func report(w io.Writer, o options, env map[string]any, outs []roundOut) error {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var setups, recs, heaps, rates []float64
	var wins []segment
	var dur time.Duration
	for _, r := range outs {
		setups = append(setups, r.setup.Seconds())
		for _, d := range r.recovery {
			recs = append(recs, d.Seconds())
		}
		heaps = append(heaps, float64(r.heap)/(1<<20))
		seg := r.plain
		if o.trace {
			seg = r.traced
		}
		res.Attempted += seg.attempted
		res.Failed += seg.failed
		dur += seg.dur
		if len(seg.windows) == 0 {
			wins = append(wins, seg)
		} else {
			wins = append(wins, seg.windows...)
		}
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	for _, s := range wins {
		rates = append(rates, s.rate())
	}
	reads := func(s segment) lat { return s.reads }
	writes := func(s segment) lat { return s.writes }
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if o.trace {
		meds := layerMedians(outs)
		for _, m := range perLayer {
			put(m.name, meds[m.name], m.unit)
		}
	} else {
		put("ops_s", iqm(rates), "1/s")
		put("read_p50_us", windowPercentile(wins, reads, 50)/1e3, "us")
		put("read_tail_us", windowPercentile(wins, reads, tailPct)/1e3, "us")
		put("write_p50_us", windowPercentile(wins, writes, 50)/1e3, "us")
		put("write_tail_us", windowPercentile(wins, writes, tailPct)/1e3, "us")
		put("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
		put("setup_s", median(setups), "s")
		put("recovery_s", iqm(recs), "s")
		put("live_heap_mb", median(heaps), "MiB")
	}

	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(envLine))
	fmt.Fprintf(w, "# %s: %d ops in %d windows over %d rounds (%.2fs measured)\n",
		o.workload, res.Attempted, len(wins), len(outs), dur.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	line := func(name string, v float64, unit string) { fmt.Fprintf(w, "%-36s %14.4f %s\n", name, v, unit) }
	for _, name := range names {
		line(name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if !o.trace {
		// The same figures under the names NOTES.md gives them.
		line("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
		line(fmt.Sprintf("read_p%d_us", tailPct), res.Metrics["read_tail_us"].Value, "us")
		line(fmt.Sprintf("write_p%d_us", tailPct), res.Metrics["write_tail_us"].Value, "us")
		// The design's p99, for reading only: it is not in the result
		// line because it spreads too much from run to run (tailPct).
		line("read_p99_us", windowPercentile(wins, reads, 99)/1e3, "us")
		line("write_p99_us", windowPercentile(wins, writes, 99)/1e3, "us")
		if o.workload == "ship" {
			// The ship workload's "read" is the home-side import of one
			// upload (lazy import, walk and sum, finalize).
			line("import_p50_ms", res.Metrics["read_p50_us"].Value/1e3, "ms")
			line("import_p95_ms", res.Metrics["read_tail_us"].Value/1e3, "ms")
			line("shipped_bytes_per_user_byte", plainMedian(outs, "reloc.shipped_bytes_per_user_byte"), "B/B")
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// windowPercentile is the interquartile mean over windows of each window's p-th
// percentile of the picked samples, when every window holds at least
// ten samples beyond that percentile; otherwise the p-th percentile of
// all samples pooled.
func windowPercentile(wins []segment, pick func(segment) lat, p float64) float64 {
	need := int(math.Ceil(10 / (1 - p/100)))
	all := make([]lat, 0, len(wins))
	for _, s := range wins {
		all = append(all, pick(s))
	}
	per := make([]float64, 0, len(wins))
	for _, l := range all {
		if l.len() < need {
			return percentile(merge(all...).sorted(), p)
		}
		per = append(per, percentile(l.sorted(), p))
	}
	return iqm(per)
}

// tailPct is the percentile every workload reports as read_tail_us and
// write_tail_us. Further out, on a shared 2-vCPU VM, the p99 of runs of
// the same code spread past the benchmark's 25% bound.
const tailPct = 95

// workloadProcs is GOMAXPROCS per workload. kv-mix's workers and
// meta-churn's clients run in parallel. ship is one loop that spends
// most of each cycle handing requests to its in-process daemons over a
// socket; on one P that hand-off is a goroutine switch instead of a
// cross-CPU wake-up, whose cost swings with the host's load.
var workloadProcs = map[string]int{"kv-mix": 2, "meta-churn": 2, "ship": 1}

// plainMedian is the median over rounds of a figure the untraced
// segments report.
func plainMedian(outs []roundOut, name string) float64 {
	var vs []float64
	for _, r := range outs {
		if v, ok := r.plain.layers[name]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// layerMedians takes each per-layer figure's median over rounds, and
// adds the tracing overhead: the traced halves' time per op over the
// untraced halves', pooled over every round, minus one.
func layerMedians(outs []roundOut) map[string]float64 {
	vals := map[string][]float64{}
	var plainOps, tracedOps float64
	var plainDur, tracedDur time.Duration
	for _, r := range outs {
		for name, v := range r.traced.layers {
			vals[name] = append(vals[name], v)
		}
		for name, v := range r.layers {
			vals[name] = append(vals[name], v)
		}
		vals["pmem.heap_growth_kb_per_kop"] = append(vals["pmem.heap_growth_kb_per_kop"], r.growth)
		plainOps, plainDur = plainOps+float64(r.plain.done()), plainDur+r.plain.dur
		tracedOps, tracedDur = tracedOps+float64(r.traced.done()), tracedDur+r.traced.dur
	}
	out := make(map[string]float64, len(vals)+1)
	for name, vs := range vals {
		out[name] = median(vs)
	}
	out["trace.overhead_pct"] = (plainOps/plainDur.Seconds()/(tracedOps/tracedDur.Seconds()) - 1) * 100
	return out
}

// environment records what produced a result: code, toolchain,
// machine, fence model and inputs.
func environment(o options) (map[string]any, error) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	src, err := sourceHash(".")
	if err != nil {
		return nil, fmt.Errorf("hashing sources: %w", err)
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": src,
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"fence_model":   fenceLatency.String() + " per Device.Fence",
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
	}, nil
}

// sourceHash digests every Go source and go.mod under root, so a result
// names the code it measured even in a checkout without git metadata.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && p != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, ".s") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
