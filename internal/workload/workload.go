// Package workload implements the five-benchmark suite of Table 3 —
// adjacency-list graph insert, red-black tree search/insert, random array
// swaps (sps), B+tree search/insert, and hashtable search/insert — as real
// data structures operating over the simulated persistent heap.
//
// Every node field access goes through a trace.Recorder, so the emitted
// memory trace has the genuine pointer-chasing, rebalancing and allocation
// behaviour of the benchmark class used by the paper (the NV-heaps-like
// suite). Durable updates are wrapped in Transaction{...} blocks exactly as
// the paper's software interface prescribes; lookups are read-only and
// non-transactional.
package workload

import (
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// Benchmark identifies one of the five workloads.
type Benchmark int

const (
	// Graph inserts edges into an adjacency-list graph.
	Graph Benchmark = iota
	// RBTree searches and inserts nodes in a red-black tree.
	RBTree
	// SPS randomly swaps elements in a persistent array.
	SPS
	// BTree searches and inserts nodes in a B+tree.
	BTree
	// Hashtable searches and inserts key-value pairs in a chained
	// hashtable.
	Hashtable
	// Bank is an extension beyond the paper's suite: OLTP-style
	// transfers across a balance array plus an append-only audit list,
	// with a money-conservation invariant.
	Bank
	// BankShared is the contended variant of Bank: every core keeps its
	// private balance array and audit trail, but a configurable fraction
	// of transactions also update accounts in a shared array that all
	// cores address (memaddr.SharedNVM), so cross-core transactions
	// genuinely collide on cache lines.
	BankShared
)

// All lists the paper's Table 3 benchmarks in presentation order.
var All = []Benchmark{Graph, RBTree, SPS, BTree, Hashtable}

// Extended lists every available benchmark, including the extensions
// beyond the paper's suite.
var Extended = []Benchmark{Graph, RBTree, SPS, BTree, Hashtable, Bank, BankShared}

// String returns the benchmark's name as used in the paper's figures.
func (b Benchmark) String() string {
	switch b {
	case Graph:
		return "graph"
	case RBTree:
		return "rbtree"
	case SPS:
		return "sps"
	case BTree:
		return "btree"
	case Hashtable:
		return "hashtable"
	case Bank:
		return "bank"
	case BankShared:
		return "bankshared"
	default:
		return fmt.Sprintf("benchmark(%d)", int(b))
	}
}

// Description returns the Table 3 description.
func (b Benchmark) Description() string {
	switch b {
	case Graph:
		return "Insert in an adjacency list graph."
	case RBTree:
		return "Search/Insert nodes in a red-black tree."
	case SPS:
		return "Randomly swap elements in an array."
	case BTree:
		return "Search/Insert nodes in a B+tree."
	case Hashtable:
		return "Search/Insert a key-value pair in a hashtable."
	case Bank:
		return "Transfer between accounts with an audit trail (extension)."
	case BankShared:
		return "Bank with cross-core transfers into a shared account array (extension)."
	default:
		return "unknown"
	}
}

// ParseBenchmark maps a name (as printed by String) to a Benchmark.
func ParseBenchmark(name string) (Benchmark, error) {
	for _, b := range Extended {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Instruction-cost constants: the compute work surrounding each memory
// access, standing in for the address arithmetic, compares, branches and
// allocator bookkeeping of the real binaries. The resulting dynamic
// instruction mix is roughly one memory access per 3–5 instructions,
// matching the pointer-heavy benchmark class.
const (
	// CostOpSetup is per-operation driver overhead (argument marshaling,
	// RNG advance).
	CostOpSetup = 6
	// CostNodeVisit is per-node traversal work (compare + branch +
	// address arithmetic).
	CostNodeVisit = 3
	// CostAlloc is the persistent allocator's bookkeeping per
	// allocation.
	CostAlloc = 16
	// CostHash is the hash-function work per hashtable operation.
	CostHash = 8
)

// BytesPerElement estimates the persistent-heap footprint per
// prepopulated element, used to size working sets relative to the LLC.
func BytesPerElement(b Benchmark) int {
	switch b {
	case SPS:
		return 8 // one word per array element
	case RBTree:
		return rbNodeWords * 8
	case BTree:
		// ~4.5 keys per 128-byte leaf plus ~15% internal-node
		// overhead.
		return 33
	case Hashtable:
		return htNodeWords*8 + 4 // node plus amortized half-bucket
	case Graph:
		return 8 + graphEdgeWords*8 // head pointer plus one edge
	case Bank, BankShared:
		return 8 + bankAuditWords*8 // balance word plus ~one audit record
	default:
		return 8
	}
}

// SizeForFootprint returns the InitialSize that gives the benchmark
// roughly the requested persistent footprint in bytes.
func SizeForFootprint(b Benchmark, bytes int) int {
	n := bytes / BytesPerElement(b)
	if n < 16 {
		n = 16
	}
	return n
}

// Params configures one core's workload generation.
type Params struct {
	// Seed drives all randomness for this core's stream.
	Seed uint64
	// Core is this stream's core index; BankShared tags its shared-array
	// store values with it so the durable image attributes every word to
	// a writer.
	Core int
	// InitialSize is the number of elements prepopulated (untraced)
	// before the measured window: array length for sps, vertex count
	// for graph, element count for the index structures.
	InitialSize int
	// Ops is the number of measured operations (each operation commits
	// exactly one durable transaction).
	Ops int
	// SearchesPerOp is the number of read-only lookups performed before
	// each insert/swap transaction (0 for graph and sps, which the
	// paper describes as insert/swap-only).
	SearchesPerOp int
	// PersistentRegion and VolatileRegion are this core's disjoint
	// address carvings.
	PersistentRegion memaddr.Range
	VolatileRegion   memaddr.Range
	// SharedAccounts sizes the cross-core shared balance array
	// (BankShared only; 0 selects DefaultSharedAccounts). The array
	// lives at memaddr.SharedNVM.Base on every core.
	SharedAccounts int
	// ContentionPct is the fraction of BankShared transactions
	// (0..1) that transfer between shared accounts instead of the
	// core's private ones.
	ContentionPct float64
}

// DefaultSharedAccounts is the shared-array length used when
// Params.SharedAccounts is zero. Small on purpose: 64 accounts across
// up to 64 cores makes line collisions routine rather than incidental.
const DefaultSharedAccounts = 64

// DefaultContentionPct is the shared-transfer fraction used when
// Params.ContentionPct is zero on a BankShared workload.
const DefaultContentionPct = 0.5

// DefaultParams returns a parameter set sized for the given benchmark,
// using fixed per-core region carvings for core.
//
// Seed derivation: core c's stream seed is seed*1000003 + c — a fixed
// function of (seed, core) only. Together with the fixed-offset address
// carvings (memaddr.PerCoreNVM/PerCoreDRAM, which never divide by the
// machine width), this makes core c's generated record stream invariant
// under the core count: the trace core 2 replays on a 4-core machine is
// byte-identical to the one it replays on a 16- or 64-core machine.
// nCores is retained for interface stability and bounds-checking only.
func DefaultParams(b Benchmark, core, nCores int, seed uint64, initialSize, ops int) Params {
	if core < 0 || core >= nCores {
		panic(fmt.Sprintf("workload: core %d outside [0, %d)", core, nCores))
	}
	p := Params{
		Seed:             seed*1000003 + uint64(core),
		Core:             core,
		InitialSize:      initialSize,
		Ops:              ops,
		PersistentRegion: memaddr.PerCoreNVM(core),
		VolatileRegion:   memaddr.PerCoreDRAM(core),
	}
	switch b {
	case RBTree, BTree, Hashtable, Bank, BankShared:
		p.SearchesPerOp = 1
	}
	if b == BankShared {
		p.SharedAccounts = DefaultSharedAccounts
		p.ContentionPct = DefaultContentionPct
	}
	return p
}

// Output is the product of building one core's workload: the record
// stream the timing model pulls (which queues each transaction's write
// set on the oracle as the core pulls its TX_END), the recorder behind
// it, and the durable base image (the NVM content assumed durable before
// cycle 0).
type Output struct {
	Benchmark Benchmark
	Params    Params
	// Recorder runs the ops and counts what they emit. Its state belongs
	// to whoever fills the stream, which may be a producer goroutine
	// while a System runs: read its counters only once the stream is
	// drained.
	Recorder *trace.Recorder
	// Stream is the lazy record producer: the measured window's op() loop
	// fills a small ring of record chunks ahead of the core, so memory
	// stays O(structure footprint) instead of O(run length).
	Stream *trace.Generator
	// Meta anchors the structure for post-crash image validation.
	Meta Meta
	// BaseImage is the post-warmup architectural image: the durable NVM
	// state at the start of the measured window.
	BaseImage *memimage.Image
}

// NewReader returns the trace source the core model consumes: the
// generator.
func (o *Output) NewReader() trace.Reader { return o.Stream }

// StreamErr surfaces a generation failure (a workload error, invariant
// violation or malformed record mid-run). The core model sees a failed
// stream as merely exhausted, so drivers must check this after the run.
func (o *Output) StreamErr() error { return o.Stream.Err() }

// bench is the internal contract each data structure implements.
type bench interface {
	// setup prepopulates the structure with n elements (called with the
	// recorder quiet).
	setup(n int) error
	// op runs one measured operation; searches read-only lookups
	// precede the single durable transaction.
	op(searches int) error
	// check verifies structural invariants by reading the program image
	// directly (no trace pollution); returns a descriptive error.
	check() error
	// describe returns the anchors needed to validate a recovered
	// image.
	describe() Meta
}

// ringWords sizes the volatile scratch ring every benchmark keeps in
// DRAM (per-operation application bookkeeping), so the DRAM path is
// exercised alongside the NVM path.
const ringWords = 1024

// generation is the state of one core's workload run: the data
// structure, its recorder, and the volatile scratch ring.
type generation struct {
	b    Benchmark
	p    Params
	impl bench
	rec  *trace.Recorder
	base *memimage.Image
	ring uint64
}

// build assembles the benchmark, runs the (untraced) warmup and captures
// the post-warmup base image; the measured window has not started yet.
func build(b Benchmark, p Params) (*generation, error) {
	rec := trace.NewRecorder(memimage.New())
	rng := sim.NewRNG(p.Seed)
	hp := pheap.New(p.PersistentRegion)
	hv := pheap.New(p.VolatileRegion)

	var impl bench
	switch b {
	case Graph:
		impl = newGraph(rec, hp, rng)
	case RBTree:
		impl = newRBTree(rec, hp, rng)
	case SPS:
		impl = newSPS(rec, hp, rng)
	case BTree:
		impl = newBTree(rec, hp, rng)
	case Hashtable:
		impl = newHashtable(rec, hp, rng)
	case Bank:
		impl = newBank(rec, hp, rng)
	case BankShared:
		impl = newBankShared(rec, hp, rng, p)
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %d", int(b))
	}

	ring, err := hv.Alloc(ringWords)
	if err != nil {
		return nil, fmt.Errorf("workload %s: volatile ring: %w", b, err)
	}

	rec.SetQuiet(true)
	if err := impl.setup(p.InitialSize); err != nil {
		return nil, fmt.Errorf("workload %s: setup: %w", b, err)
	}
	rec.SetQuiet(false)
	base := rec.Image().Snapshot()
	return &generation{b: b, p: p, impl: impl, rec: rec, base: base, ring: ring}, nil
}

// runOp executes measured operation i: the benchmark op plus the
// volatile ring traffic.
func (g *generation) runOp(i int) error {
	if err := g.impl.op(g.p.SearchesPerOp); err != nil {
		return fmt.Errorf("workload %s: op %d: %w", g.b, i, err)
	}
	g.rec.Store(g.ring+uint64(i%ringWords)*8, uint64(i))
	if i%4 == 3 {
		g.rec.Load(g.ring + uint64((i*7)%ringWords)*8)
	}
	return nil
}

// finish verifies the structure's invariants over the program image once
// the measured window completes.
func (g *generation) finish() error {
	if err := g.impl.check(); err != nil {
		return fmt.Errorf("workload %s: invariant check: %w", g.b, err)
	}
	return nil
}

// output assembles the Output (without its Stream).
func (g *generation) output() *Output {
	meta := g.impl.describe()
	meta.MaxElems = 4*(int64(g.p.InitialSize)+int64(g.p.Ops)) + 16
	return &Output{
		Benchmark: g.b,
		Params:    g.p,
		Recorder:  g.rec,
		Meta:      meta,
		BaseImage: g.base,
	}
}

// NewStream builds the data structure (warmup included, so BaseImage is
// ready for machine construction) but defers the measured window: the
// returned Output carries a trace.Generator that runs whole ops into its
// chunks, ahead of the consumer or as it pulls. Records are validated in
// stream order (trace.StreamValidator), structural invariants are
// checked at exhaustion, and any failure surfaces through
// Output.StreamErr once the consumer reaches it. Memory stays
// O(structure footprint) instead of O(ops). Committed write sets go to
// the oracle a caller attaches with Stream.SetOracle before pulling the
// first record.
func NewStream(b Benchmark, p Params) (*Output, error) {
	g, err := build(b, p)
	if err != nil {
		return nil, err
	}
	var sv trace.StreamValidator
	i := 0
	gen := trace.NewGenerator(func(emit func(trace.Record)) (bool, error) {
		g.rec.SetSink(emit)
		if i >= g.p.Ops {
			if err := g.finish(); err != nil {
				return false, err
			}
			// Every emitted record has already passed the per-record
			// check (a fill checks each op's records before the next op
			// runs), so only the end-of-stream condition remains.
			if err := sv.Finish(); err != nil {
				return false, fmt.Errorf("workload %s: invalid trace: %w", g.b, err)
			}
			return false, nil
		}
		err := g.runOp(i)
		i++
		return err == nil, err
	})
	gen.SetCheck(func(r trace.Record) error {
		if err := sv.Check(r); err != nil {
			return fmt.Errorf("workload %s: invalid trace: %w", g.b, err)
		}
		return nil
	})
	out := g.output()
	out.Stream = gen
	return out, nil
}
