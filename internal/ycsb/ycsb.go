// Package ycsb implements the YCSB benchmark suite (Cooper et al.,
// SoCC '10) used for the paper's Figure 11: key-choosing distributions
// (scrambled zipfian, latest, uniform) and the standard workload mixes
// A–F plus the write-only extension G the paper reports.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one YCSB operation type.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	OpRMW // read-modify-write
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	case OpRMW:
		return "RMW"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one generated request.
type Op struct {
	Kind    OpKind
	Key     uint64
	ScanLen int
}

// Workload is an operation mix plus a request distribution.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	// Latest selects the latest distribution (workload D); otherwise
	// scrambled zipfian.
	Latest     bool
	MaxScanLen int
}

// Workloads returns the standard suite. G is the common write-only
// extension (100% update) the paper reports alongside A–F; standard
// YCSB defines only A–F.
func Workloads() []Workload {
	return []Workload{
		{Name: "A", ReadProp: 0.5, UpdateProp: 0.5},
		{Name: "B", ReadProp: 0.95, UpdateProp: 0.05},
		{Name: "C", ReadProp: 1.0},
		{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Latest: true},
		{Name: "E", ScanProp: 0.95, InsertProp: 0.05, MaxScanLen: 100},
		{Name: "F", ReadProp: 0.5, RMWProp: 0.5},
		{Name: "G", UpdateProp: 1.0},
	}
}

// WorkloadByName finds a workload in the standard suite.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// Zipfian generates zipf-distributed values over [0, n) using Gray et
// al.'s algorithm (the YCSB generator).
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfian builds a generator over [0, n).
func NewZipfian(n uint64, rng *rand.Rand) *Zipfian {
	z := &Zipfian{n: n, theta: ZipfianConstant, rng: rng}
	z.zeta2 = zetaStatic(2, z.theta)
	z.zetan = zetaStatic(n, z.theta)
	z.alpha = 1.0 / (1.0 - z.theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a value in [0, n).
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// fnvScramble spreads hot zipfian ranks across the key space
// (YCSB's ScrambledZipfianGenerator).
func fnvScramble(v uint64) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Generator produces a request stream for one workload.
type Generator struct {
	w       Workload
	rng     *rand.Rand
	zipf    *Zipfian
	records uint64 // current record count (inserts extend it)

	insertNext   uint64 // key the next insert uses
	insertStride uint64 // distance between this generator's insert keys
	sharded      bool
}

// NewGenerator builds a request generator over an initial record
// count. Deterministic for a given seed.
func NewGenerator(w Workload, records uint64, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		w:            w,
		rng:          rng,
		zipf:         NewZipfian(records, rng),
		records:      records,
		insertNext:   records,
		insertStride: 1,
	}
}

// NewShardedGenerator builds a generator for one of `shards`
// concurrent workers over a shared store. Insert keys are strided so
// shards never collide (shard s inserts records+s, records+s+shards,
// …); reads and updates draw from the initially loaded [0, records)
// key space, which every shard knows is present. (Deviation from
// single-threaded YCSB: the latest/zipfian distributions do not grow
// to cover other shards' inserts, since their presence is racy.)
func NewShardedGenerator(w Workload, records uint64, seed int64, shard, shards int) *Generator {
	g := NewGenerator(w, records, seed)
	g.insertNext = records + uint64(shard)
	g.insertStride = uint64(shards)
	g.sharded = true
	return g
}

// Records returns the current record count.
func (g *Generator) Records() uint64 { return g.records }

// chooseKey picks an existing key per the workload's distribution.
func (g *Generator) chooseKey() uint64 {
	if g.w.Latest {
		// Latest: zipfian over recency — hottest keys are newest.
		r := g.zipf.Next()
		if r >= g.records {
			r = g.records - 1
		}
		return g.records - 1 - r
	}
	return fnvScramble(g.zipf.Next()) % g.records
}

// Next generates the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Float64()
	w := &g.w
	switch {
	case p < w.ReadProp:
		return Op{Kind: OpRead, Key: g.chooseKey()}
	case p < w.ReadProp+w.UpdateProp:
		return Op{Kind: OpUpdate, Key: g.chooseKey()}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		k := g.insertNext
		g.insertNext += g.insertStride
		if !g.sharded {
			g.records++
		}
		return Op{Kind: OpInsert, Key: k}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		n := 1
		if w.MaxScanLen > 1 {
			n += g.rng.Intn(w.MaxScanLen)
		}
		return Op{Kind: OpScan, Key: g.chooseKey(), ScanLen: n}
	default:
		return Op{Kind: OpRMW, Key: g.chooseKey()}
	}
}

// LoadKeys returns the keys of the load phase (0..records-1), which
// every library inserts before the run phase.
func LoadKeys(records uint64) []uint64 {
	out := make([]uint64, records)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}
