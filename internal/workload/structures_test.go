package workload

// Direct structural tests of the individual data structures, driving them
// harder than a generated workload does and checking invariants after every
// few operations.

import (
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

func newHarness() (*trace.Recorder, *pheap.Heap, *sim.RNG) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 28})
	return rec, hp, sim.NewRNG(99)
}

func TestRBTreeInvariantsUnderHeavyInsert(t *testing.T) {
	rec, hp, rng := newHarness()
	tr := newRBTree(rec, hp, rng)
	if err := tr.setup(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.insert(tr.nextKey(), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
		if i%250 == 0 {
			if err := tr.check(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeSequentialKeysForceRotations(t *testing.T) {
	// Monotonic keys are the worst case for an unbalanced BST; a valid
	// red-black fixup keeps the tree shallow.
	rec, hp, rng := newHarness()
	tr := newRBTree(rec, hp, rng)
	if err := tr.setup(0); err != nil {
		t.Fatal(err)
	}
	const n = 1024
	for i := 1; i <= n; i++ {
		if err := tr.insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	// Depth bound: 2*log2(n+1) for a red-black tree.
	img := rec.Image()
	var depth func(n uint64) int
	depth = func(node uint64) int {
		if node == 0 {
			return 0
		}
		l := depth(img.ReadWord(node + rbLeft*8))
		r := depth(img.ReadWord(node + rbRight*8))
		if r > l {
			l = r
		}
		return l + 1
	}
	if d := depth(img.ReadWord(tr.rootPtr)); d > 22 {
		t.Fatalf("depth %d for %d sequential inserts, want <= 22", d, n)
	}
}

func TestRBTreeSearchFindsEveryInsertedKey(t *testing.T) {
	rec, hp, rng := newHarness()
	tr := newRBTree(rec, hp, rng)
	if err := tr.setup(0); err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		k, v := tr.nextKey(), rng.Uint64()
		if _, dup := keys[k]; dup {
			continue
		}
		keys[k] = v
		if err := tr.insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k := range keys {
		if n := tr.search(k); n == 0 {
			t.Fatalf("key %d not found", k)
		}
	}
	if tr.search(0xffff_ffff_ffff_fff1) != 0 {
		t.Fatal("search found a key never inserted")
	}
}

func TestRBTreeDuplicateInsertUpdatesValue(t *testing.T) {
	rec, hp, rng := newHarness()
	tr := newRBTree(rec, hp, rng)
	if err := tr.setup(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.insert(42, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.insert(42, 2); err != nil {
		t.Fatal(err)
	}
	if tr.size != 1 {
		t.Fatalf("size = %d after duplicate insert, want 1", tr.size)
	}
	n := tr.search(42)
	if got := rec.Image().ReadWord(n + rbVal*8); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
}

func TestBTreeInvariantsUnderHeavyInsert(t *testing.T) {
	rec, hp, rng := newHarness()
	bt := newBTree(rec, hp, rng)
	if err := bt.setup(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := bt.insert(bt.nextKey(), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := bt.check(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeSequentialAndReverseInserts(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(i + 1) },
		"descending": func(i int) uint64 { return uint64(5000 - i) },
	} {
		rec, hp, rng := newHarness()
		bt := newBTree(rec, hp, rng)
		if err := bt.setup(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := bt.insert(gen(i), uint64(i)); err != nil {
				t.Fatalf("%s insert %d: %v", name, i, err)
			}
		}
		if err := bt.check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = rec
	}
}

func TestBTreeSearchFindsEveryInsertedKeyWithValue(t *testing.T) {
	rec, hp, rng := newHarness()
	bt := newBTree(rec, hp, rng)
	if err := bt.setup(0); err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		k, v := bt.nextKey(), rng.Uint64()
		keys[k] = v
		if err := bt.insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range keys {
		got, found := bt.search(k)
		if !found || got != v {
			t.Fatalf("search(%d) = (%d,%v), want (%d,true)", k, got, found, v)
		}
	}
	if _, found := bt.search(0xffff_ffff_ffff_fff1); found {
		t.Fatal("search found a key never inserted")
	}
	_ = rec
}

func TestBTreeDuplicateInsertUpdates(t *testing.T) {
	rec, hp, rng := newHarness()
	bt := newBTree(rec, hp, rng)
	if err := bt.setup(0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{10, 20} {
		if err := bt.insert(77, v); err != nil {
			t.Fatal(err)
		}
	}
	if bt.size != 1 {
		t.Fatalf("size = %d, want 1", bt.size)
	}
	got, found := bt.search(77)
	if !found || got != 20 {
		t.Fatalf("search(77) = (%d,%v), want (20,true)", got, found)
	}
	_ = rec
}

func TestHashtableCollisionsAndUpdates(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 24})
	ht := newHashtable(rec, hp, sim.NewRNG(3))
	if err := ht.setup(4); err != nil { // few buckets -> forced collisions
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if err := ht.insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := ht.check(); err != nil {
		t.Fatal(err)
	}
	// Update an existing key: size must not grow.
	before := ht.size
	if err := ht.insert(100, 555); err != nil {
		t.Fatal(err)
	}
	if ht.size != before {
		t.Fatalf("update grew size from %d to %d", before, ht.size)
	}
	if n := ht.lookup(100); n == 0 {
		t.Fatal("lookup(100) failed")
	} else if got := rec.Image().ReadWord(n + htVal*8); got != 555 {
		t.Fatalf("value = %d, want 555", got)
	}
	if ht.lookup(0xdead_beef_dead_beef) != 0 {
		t.Fatal("lookup found a key never inserted")
	}
}

func TestGraphEdgeOrderIsLIFO(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 24})
	g := newGraph(rec, hp, sim.NewRNG(5))
	if err := g.setup(graphDegree * 40); err != nil {
		t.Fatal(err)
	}
	// Insert two fresh edges from vertex 0 to distinct targets the
	// setup cannot have created (targets beyond... use edges to the
	// same vertex pair twice to exercise the update path instead).
	before := g.edges
	if err := g.insertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	head1 := rec.Image().ReadWord(g.headAddr(0))
	firstWasFresh := g.edges == before+1
	if err := g.insertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	head2 := rec.Image().ReadWord(g.headAddr(0))
	secondWasFresh := g.edges == before+1+1 || (!firstWasFresh && g.edges == before+1)
	if firstWasFresh && secondWasFresh {
		if head2 == head1 {
			t.Fatal("head did not move on fresh insert")
		}
		if next := rec.Image().ReadWord(head2 + geNext*8); next != head1 {
			t.Fatalf("new head's next = %#x, want %#x", next, head1)
		}
	}
	// Re-inserting an existing edge updates in place: head stays.
	headBefore := rec.Image().ReadWord(g.headAddr(0))
	edgesBefore := g.edges
	if err := g.insertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.edges != edgesBefore {
		t.Fatal("duplicate insert created a new edge")
	}
	if rec.Image().ReadWord(g.headAddr(0)) != headBefore {
		t.Fatal("duplicate insert moved the head")
	}
	if err := g.check(); err != nil {
		t.Fatal(err)
	}
}

func TestSPSSwapPreservesPermutation(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 20})
	s := newSPS(rec, hp, sim.NewRNG(8))
	if err := s.setup(64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := s.op(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBankConservationAndAudit(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 24})
	b := newBank(rec, hp, sim.NewRNG(17))
	if err := b.setup(64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := b.op(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	if b.transfers != 500 {
		t.Fatalf("transfers = %d, want 500", b.transfers)
	}
	// The image validator agrees.
	meta := b.describe()
	meta.MaxElems = 4 * (64 + 500)
	if err := CheckImage(Bank, meta, rec.Image()); err != nil {
		t.Fatal(err)
	}
}

func TestBankNeverOverdraws(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 22})
	b := newBank(rec, hp, sim.NewRNG(3))
	if err := b.setup(2); err != nil {
		t.Fatal(err)
	}
	// Drain account 0 with repeated large transfers.
	for i := 0; i < 50; i++ {
		if err := b.transfer(0, 1, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	img := rec.Image()
	if got := img.ReadWord(b.balanceAddr(0)); got != 0 {
		t.Fatalf("account 0 balance = %d, want 0 (clamped, not negative)", got)
	}
	if got := img.ReadWord(b.balanceAddr(1)); got != 2*bankInitialBalance {
		t.Fatalf("account 1 balance = %d, want %d", got, 2*bankInitialBalance)
	}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBankImageValidatorDetectsTornTransfer(t *testing.T) {
	rec := trace.NewRecorder(memimage.New())
	hp := pheap.New(memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 22})
	b := newBank(rec, hp, sim.NewRNG(5))
	if err := b.setup(8); err != nil {
		t.Fatal(err)
	}
	img := rec.Image().Snapshot()
	// Simulate a torn transfer: debit without credit.
	img.WriteWord(b.balanceAddr(0), bankInitialBalance-100)
	meta := b.describe()
	meta.MaxElems = 100
	if err := checkBankImage(meta, img); err == nil {
		t.Fatal("torn transfer not detected")
	}
}
