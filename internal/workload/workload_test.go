package workload

import (
	"reflect"
	"strings"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/trace"
)

func testParams(seed uint64, initial, ops int) Params {
	return Params{
		Seed:             seed,
		InitialSize:      initial,
		Ops:              ops,
		SearchesPerOp:    1,
		PersistentRegion: memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 26},
		VolatileRegion:   memaddr.Range{Base: memaddr.DRAMBase, Size: 1 << 22},
	}
}

func TestBenchmarkNamesRoundTrip(t *testing.T) {
	for _, b := range All {
		got, err := ParseBenchmark(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBenchmark(%q) = %v, %v", b.String(), got, err)
		}
		if b.Description() == "unknown" {
			t.Errorf("%v has no description", b)
		}
	}
	if _, err := ParseBenchmark("nope"); err == nil {
		t.Error("ParseBenchmark accepted unknown name")
	}
}

func TestGenerateAllBenchmarks(t *testing.T) {
	for _, b := range All {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			_, o, tr, err := generateFolded(b, testParams(1, 200, 300))
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			s := trace.Summarize(trace.NewReader(tr))
			if s.Transactions != 300 {
				t.Errorf("transactions = %d, want 300 (one per op)", s.Transactions)
			}
			if s.PersistentStores == 0 {
				t.Error("no persistent stores recorded")
			}
			if o.Committed(0) != 300 {
				t.Errorf("oracle has %d txs, want 300", o.Committed(0))
			}
			if s.Instructions == 0 || s.Loads == 0 {
				t.Error("empty instruction/load stream")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, b := range All {
		_, o1, t1, err := generateFolded(b, testParams(7, 100, 150))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		_, o2, t2, err := generateFolded(b, testParams(7, 100, 150))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if t1.Len() != t2.Len() {
			t.Fatalf("%v: trace lengths differ: %d vs %d", b, t1.Len(), t2.Len())
		}
		for i := range t1.Records {
			if t1.Records[i] != t2.Records[i] {
				t.Fatalf("%v: record %d differs", b, i)
			}
		}
		if !o1.Image().Equal(o2.Image()) {
			t.Fatalf("%v: final images differ", b)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	_, a, err := generate(RBTree, testParams(1, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := generate(RBTree, testParams(2, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == b.Len() {
		same := true
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestFinalImageMatchesArchitecturalState(t *testing.T) {
	// The base image plus all committed write sets must agree with the
	// final architectural image on every persistent word the oracle
	// touched.
	for _, b := range All {
		out, o, _, err := generateFolded(b, testParams(3, 150, 200))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		arch := out.Recorder.Image()
		bad := 0
		o.Image().ForEach(func(addr, v uint64) {
			if memaddr.IsPersistent(addr) && arch.ReadWord(addr) != v {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("%v: %d persistent words diverge between oracle and architecture", b, bad)
		}
	}
}

func TestSPSIsMostWriteIntensive(t *testing.T) {
	// §5.2 singles out sps as the highest write intensity; confirm the
	// workload suite preserves that ranking (persistent stores per
	// instruction).
	intensity := func(b Benchmark) float64 {
		_, tr, err := generate(b, testParams(4, 300, 300))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		s := trace.Summarize(trace.NewReader(tr))
		return float64(s.PersistentStores) / float64(s.Instructions)
	}
	sps := intensity(SPS)
	for _, b := range []Benchmark{Graph, RBTree, BTree, Hashtable} {
		if in := intensity(b); in >= sps {
			t.Errorf("%v write intensity %.4f >= sps %.4f", b, in, sps)
		}
	}
}

func TestSetupTooSmallFails(t *testing.T) {
	p := testParams(1, 0, 10)
	if _, _, err := generate(SPS, p); err == nil {
		t.Error("sps with 0 elements did not fail")
	}
	if _, _, err := generate(Graph, p); err == nil {
		t.Error("graph with 0 vertices did not fail")
	}
}

func TestHeapExhaustionSurfacesAsError(t *testing.T) {
	p := testParams(1, 100, 100)
	p.PersistentRegion.Size = 1 << 10 // far too small
	if _, _, err := generate(RBTree, p); err == nil {
		t.Error("tiny persistent region did not fail")
	}
}

func TestDefaultParamsDisjointAcrossCores(t *testing.T) {
	const nCores = 4
	var regions []memaddr.Range
	for c := 0; c < nCores; c++ {
		p := DefaultParams(RBTree, c, nCores, 1, 10, 10)
		regions = append(regions, p.PersistentRegion, p.VolatileRegion)
		if p.SearchesPerOp != 1 {
			t.Errorf("core %d: rbtree SearchesPerOp = %d, want 1", c, p.SearchesPerOp)
		}
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].Overlaps(regions[j]) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestTraceHasVolatileTraffic(t *testing.T) {
	_, tr, err := generate(SPS, testParams(5, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(trace.NewReader(tr))
	if s.Stores <= s.PersistentStores {
		t.Error("no volatile stores in trace (DRAM path unexercised)")
	}
	if s.Loads <= s.PersistentLoads {
		t.Error("no volatile loads in trace")
	}
}

func TestTraceCompositionCharacteristics(t *testing.T) {
	// Pin the qualitative character of each benchmark's memory stream:
	// these are the properties the evaluation depends on.
	type char struct {
		minStoresPerTx, maxStoresPerTx float64
		minLoadsPerStore               float64
	}
	want := map[Benchmark]char{
		SPS:       {1.9, 2.3, 0.7},  // 2 stores, 2 loads per swap (plus ring traffic)
		Graph:     {0.5, 4.5, 1.0},  // mostly 4-store inserts + updates
		Hashtable: {1.0, 5.0, 1.5},  // insert + chain walk + lookup
		RBTree:    {5.0, 40.0, 1.5}, // rebalancing writes + two descents
		BTree:     {3.0, 40.0, 1.5}, // shifting writes + descents
	}
	for b, w := range want {
		_, tr, err := generate(b, testParams(6, 400, 400))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		s := trace.Summarize(trace.NewReader(tr))
		perTx := float64(s.PersistentStores) / float64(s.Transactions)
		if perTx < w.minStoresPerTx || perTx > w.maxStoresPerTx {
			t.Errorf("%v: %.2f persistent stores/tx outside [%.1f, %.1f]",
				b, perTx, w.minStoresPerTx, w.maxStoresPerTx)
		}
		loadsPerStore := float64(s.Loads) / float64(s.Stores)
		if loadsPerStore < w.minLoadsPerStore {
			t.Errorf("%v: loads/store %.2f below %.2f", b, loadsPerStore, w.minLoadsPerStore)
		}
	}
}

func TestDependentLoadTagging(t *testing.T) {
	// Pointer-chasing benchmarks must tag most loads dependent; sps must
	// tag none.
	depFraction := func(b Benchmark) float64 {
		_, tr, err := generate(b, testParams(8, 300, 300))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		var dep, all int
		for _, r := range tr.Records {
			if r.Kind == trace.KindLoad {
				all++
				if r.Dep {
					dep++
				}
			}
		}
		return float64(dep) / float64(all)
	}
	if f := depFraction(SPS); f != 0 {
		t.Errorf("sps dependent-load fraction = %.2f, want 0", f)
	}
	for _, b := range []Benchmark{RBTree, BTree, Hashtable} {
		if f := depFraction(b); f < 0.5 {
			t.Errorf("%v dependent-load fraction = %.2f, want >= 0.5", b, f)
		}
	}
}

func TestMetaAnchorsPopulated(t *testing.T) {
	for _, b := range All {
		out, _, err := generate(b, testParams(2, 200, 100))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		m := out.Meta
		ok := false
		switch b {
		case SPS:
			ok = m.ArrayBase != 0 && m.ArrayLen > 0
		case Graph:
			ok = m.Heads != 0 && m.Vertices > 0
		case Hashtable:
			ok = m.Buckets != 0 && m.NBuckets > 0
		case RBTree, BTree:
			ok = m.RootPtr != 0
		}
		if !ok || m.MaxElems == 0 {
			t.Errorf("%v meta anchors incomplete: %+v", b, m)
		}
		// The final architectural image must validate against the meta.
		if err := CheckImage(b, m, out.Recorder.Image()); err != nil {
			t.Errorf("%v: final image fails its own validator: %v", b, err)
		}
	}
}

func TestCheckImageDetectsCorruption(t *testing.T) {
	// Corrupting the recovered image must trip the validators.
	out, _, err := generate(RBTree, testParams(4, 300, 100))
	if err != nil {
		t.Fatal(err)
	}
	img := out.Recorder.Image().Snapshot()
	root := img.ReadWord(out.Meta.RootPtr)
	// Flip the root's color to red: a red root violates the invariants.
	img.WriteWord(root+rbColor*8, rbRed)
	if err := CheckImage(RBTree, out.Meta, img); err == nil {
		t.Fatal("red root not detected")
	}

	outS, _, err := generate(SPS, testParams(4, 300, 100))
	if err != nil {
		t.Fatal(err)
	}
	imgS := outS.Recorder.Image().Snapshot()
	imgS.WriteWord(outS.Meta.ArrayBase, 0) // 0 is outside 1..n
	if err := CheckImage(SPS, outS.Meta, imgS); err == nil {
		t.Fatal("sps corruption not detected")
	}
}

// TestCheckerHoldsAfterEveryOp runs every benchmark's checker on the
// program image after each measured op, with the generator's exact
// counts and with only the recovered-image bounds. The invariants hold at
// every committed state, which is what lets CheckImage share the checker
// the generator runs at the end of its stream.
func TestCheckerHoldsAfterEveryOp(t *testing.T) {
	for _, b := range Extended {
		for _, seed := range []uint64{1, 7} {
			p := DefaultParams(b, 0, 4, seed, 200, 400)
			g, err := build(b, p)
			if err != nil {
				t.Fatalf("%v seed %d: %v", b, seed, err)
			}
			meta := g.output().Meta
			for i := 0; i < p.Ops; i++ {
				if err := g.runOp(i); err != nil {
					t.Fatalf("%v seed %d: %v", b, seed, err)
				}
				if err := checkProgram(b, g.impl, g.rec.Image()); err != nil {
					t.Fatalf("%v seed %d after op %d: %v", b, seed, i, err)
				}
				if err := CheckImage(b, meta, g.rec.Image()); err != nil {
					t.Fatalf("%v seed %d after op %d: recovered-image check: %v", b, seed, i, err)
				}
			}
		}
	}
}

// TestCheckImageDetectsStructuralCorruption covers the invariants a
// recovered image is held to beyond ordering and balance: rbtree parent
// pointers, the B+tree leaf chain and the B+tree minimum node fill.
func TestCheckImageDetectsStructuralCorruption(t *testing.T) {
	rb, _, err := generate(RBTree, testParams(4, 300, 100))
	if err != nil {
		t.Fatal(err)
	}
	img := rb.Recorder.Image().Snapshot()
	root := img.ReadWord(rb.Meta.RootPtr)
	child := img.ReadWord(root + rbLeft*8)
	img.WriteWord(child+rbParent*8, child)
	if err := CheckImage(RBTree, rb.Meta, img); err == nil || !strings.Contains(err.Error(), "wrong parent") {
		t.Errorf("rbtree child with a wrong parent pointer: got %v", err)
	}

	bt, _, err := generate(BTree, testParams(4, 300, 100))
	if err != nil {
		t.Fatal(err)
	}
	// leftmost returns the B+tree's leftmost leaf in img.
	leftmost := func(img *memimage.Image) uint64 {
		n := img.ReadWord(bt.Meta.RootPtr)
		for img.ReadWord(n)&btLeafBit == 0 {
			n = img.ReadWord(n + 8*8)
		}
		return n
	}
	img = bt.Recorder.Image().Snapshot()
	img.WriteWord(leftmost(img)+15*8, 0)
	if err := CheckImage(BTree, bt.Meta, img); err == nil || !strings.Contains(err.Error(), "leaf chain") {
		t.Errorf("truncated B+tree leaf chain: got %v", err)
	}
	img = bt.Recorder.Image().Snapshot()
	img.WriteWord(leftmost(img), btLeafBit)
	if err := CheckImage(BTree, bt.Meta, img); err == nil || !strings.Contains(err.Error(), "count 0") {
		t.Errorf("empty non-root B+tree leaf: got %v", err)
	}
}

// TestPerCoreStreamStableAcrossWidths pins the seed and carving
// derivation documented on DefaultParams: core c's parameter set — and
// therefore its generated record stream — is a function of (seed, core)
// only, never of the machine width. Growing a 4-core run to 16 or 64
// cores must not perturb the traces of the cores they share.
func TestPerCoreStreamStableAcrossWidths(t *testing.T) {
	for _, b := range []Benchmark{BankShared, RBTree} {
		for _, core := range []int{0, 2, 3} {
			p4 := DefaultParams(b, core, 4, 7, 50, 40)
			for _, n := range []int{16, 64} {
				pn := DefaultParams(b, core, n, 7, 50, 40)
				if p4 != pn {
					t.Fatalf("%v core %d: params differ between 4 and %d cores:\n4:  %+v\n%d: %+v",
						b, core, n, p4, n, pn)
				}
			}
			_, a, err := generate(b, p4)
			if err != nil {
				t.Fatalf("%v core %d: %v", b, core, err)
			}
			_, bTr, err := generate(b, DefaultParams(b, core, 64, 7, 50, 40))
			if err != nil {
				t.Fatalf("%v core %d (64-wide params): %v", b, core, err)
			}
			if !reflect.DeepEqual(a.Records, bTr.Records) {
				t.Fatalf("%v core %d: trace diverges across machine widths (%d vs %d records)",
					b, core, len(a.Records), len(bTr.Records))
			}
		}
	}
}
