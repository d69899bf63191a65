package workload

import (
	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// rbtree is the red-black tree search/insert benchmark. Nodes live in the
// persistent heap with the layout (6 words):
//
//	0 key, 1 value, 2 left, 3 right, 4 parent, 5 color (0 black, 1 red)
//
// A null pointer is address 0. The tree root pointer is itself a persistent
// word so the whole structure is recoverable. Each insert — BST descent,
// link, and the full CLRS fixup with rotations — is one durable
// transaction, giving the multi-store, scattered-address write sets that
// make trees a classic persistence stress test.
type rbtree struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	rootPtr  uint64 // address of the persistent root pointer word
	size     int    // distinct keys
	maxKey   uint64
	inserted []uint64 // keys present, for lookup ops
}

const (
	rbNodeWords = 6
	rbKey       = 0
	rbVal       = 1
	rbLeft      = 2
	rbRight     = 3
	rbParent    = 4
	rbColor     = 5

	rbBlack = 0
	rbRed   = 1
)

func newRBTree(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *rbtree {
	return &rbtree{rec: rec, heap: hp, rng: rng}
}

// Field accessors through the recorder. Every one is a real traced memory
// access; the CostNodeVisit compute is charged by the traversal loops, not
// here.
func (t *rbtree) get(n uint64, f uint64) uint64 { return t.rec.LoadDep(n + f*8) }
func (t *rbtree) set(n uint64, f, v uint64)     { t.rec.Store(n+f*8, v) }
func (t *rbtree) root() uint64                  { return t.rec.Load(t.rootPtr) }
func (t *rbtree) setRoot(n uint64)              { t.rec.Store(t.rootPtr, n) }

func (t *rbtree) setup(n int) error {
	rp, err := t.heap.Alloc(1)
	if err != nil {
		return err
	}
	t.rootPtr = rp
	t.rec.Store(t.rootPtr, 0)
	for i := 0; i < n; i++ {
		if err := t.insert(t.nextKey(), t.rng.Uint64()); err != nil {
			return err
		}
	}
	return nil
}

// nextKey draws a fresh random key; collisions fall back to max+1 so the
// tree keeps growing (the update path is still exercised by op's explicit
// duplicate probability).
func (t *rbtree) nextKey() uint64 {
	k := t.rng.Uint64()%1_000_000_007 + 1
	if k > t.maxKey {
		t.maxKey = k
	}
	return k
}

// search descends from the root, read-only.
func (t *rbtree) search(key uint64) uint64 {
	n := t.root()
	for n != 0 {
		t.rec.Compute(CostNodeVisit)
		k := t.get(n, rbKey)
		switch {
		case key == k:
			t.get(n, rbVal)
			return n
		case key < k:
			n = t.get(n, rbLeft)
		default:
			n = t.get(n, rbRight)
		}
	}
	return 0
}

// rotateLeft/rotateRight are the CLRS rotations, executed with traced
// loads and stores.
func (t *rbtree) rotateLeft(x uint64) {
	y := t.get(x, rbRight)
	yl := t.get(y, rbLeft)
	t.set(x, rbRight, yl)
	if yl != 0 {
		t.set(yl, rbParent, x)
	}
	xp := t.get(x, rbParent)
	t.set(y, rbParent, xp)
	if xp == 0 {
		t.setRoot(y)
	} else if t.get(xp, rbLeft) == x {
		t.set(xp, rbLeft, y)
	} else {
		t.set(xp, rbRight, y)
	}
	t.set(y, rbLeft, x)
	t.set(x, rbParent, y)
}

func (t *rbtree) rotateRight(x uint64) {
	y := t.get(x, rbLeft)
	yr := t.get(y, rbRight)
	t.set(x, rbLeft, yr)
	if yr != 0 {
		t.set(yr, rbParent, x)
	}
	xp := t.get(x, rbParent)
	t.set(y, rbParent, xp)
	if xp == 0 {
		t.setRoot(y)
	} else if t.get(xp, rbRight) == x {
		t.set(xp, rbRight, y)
	} else {
		t.set(xp, rbLeft, y)
	}
	t.set(y, rbRight, x)
	t.set(x, rbParent, y)
}

// insert adds key->value (or updates in place) inside one transaction.
func (t *rbtree) insert(key, value uint64) error {
	t.rec.TxBegin()
	// Descent.
	var parent uint64
	n := t.root()
	for n != 0 {
		t.rec.Compute(CostNodeVisit)
		k := t.get(n, rbKey)
		if key == k {
			t.set(n, rbVal, value)
			t.rec.TxEnd()
			return nil
		}
		parent = n
		if key < k {
			n = t.get(n, rbLeft)
		} else {
			n = t.get(n, rbRight)
		}
	}
	fresh, err := t.heap.Alloc(rbNodeWords)
	if err != nil {
		t.rec.TxEnd() // commit the (pure-read) transaction before failing
		return err
	}
	t.rec.Compute(CostAlloc)
	t.set(fresh, rbKey, key)
	t.set(fresh, rbVal, value)
	t.set(fresh, rbLeft, 0)
	t.set(fresh, rbRight, 0)
	t.set(fresh, rbParent, parent)
	t.set(fresh, rbColor, rbRed)
	if parent == 0 {
		t.setRoot(fresh)
	} else if key < t.get(parent, rbKey) {
		t.set(parent, rbLeft, fresh)
	} else {
		t.set(parent, rbRight, fresh)
	}
	t.fixup(fresh)
	t.rec.TxEnd()
	t.size++
	t.inserted = append(t.inserted, key)
	return nil
}

// fixup restores the red-black invariants after linking a red leaf.
func (t *rbtree) fixup(z uint64) {
	for {
		zp := t.get(z, rbParent)
		if zp == 0 || t.get(zp, rbColor) == rbBlack {
			break
		}
		t.rec.Compute(CostNodeVisit)
		zpp := t.get(zp, rbParent) // grandparent exists: parent is red, so not root
		if t.get(zpp, rbLeft) == zp {
			y := t.get(zpp, rbRight) // uncle
			if y != 0 && t.get(y, rbColor) == rbRed {
				t.set(zp, rbColor, rbBlack)
				t.set(y, rbColor, rbBlack)
				t.set(zpp, rbColor, rbRed)
				z = zpp
				continue
			}
			if t.get(zp, rbRight) == z {
				z = zp
				t.rotateLeft(z)
				zp = t.get(z, rbParent)
				zpp = t.get(zp, rbParent)
			}
			t.set(zp, rbColor, rbBlack)
			t.set(zpp, rbColor, rbRed)
			t.rotateRight(zpp)
		} else {
			y := t.get(zpp, rbLeft)
			if y != 0 && t.get(y, rbColor) == rbRed {
				t.set(zp, rbColor, rbBlack)
				t.set(y, rbColor, rbBlack)
				t.set(zpp, rbColor, rbRed)
				z = zpp
				continue
			}
			if t.get(zp, rbLeft) == z {
				z = zp
				t.rotateRight(z)
				zp = t.get(z, rbParent)
				zpp = t.get(zp, rbParent)
			}
			t.set(zp, rbColor, rbBlack)
			t.set(zpp, rbColor, rbRed)
			t.rotateLeft(zpp)
		}
	}
	r := t.root()
	if t.get(r, rbColor) != rbBlack {
		t.set(r, rbColor, rbBlack)
	}
}

func (t *rbtree) op(searches int) error {
	t.rec.Compute(CostOpSetup)
	for s := 0; s < searches && len(t.inserted) > 0; s++ {
		t.search(t.inserted[t.rng.Intn(len(t.inserted))])
	}
	// 1-in-8 operations update an existing key; the rest insert fresh.
	if len(t.inserted) > 0 && t.rng.Intn(8) == 0 {
		return t.insert(t.inserted[t.rng.Intn(len(t.inserted))], t.rng.Uint64())
	}
	return t.insert(t.nextKey(), t.rng.Uint64())
}

func (t *rbtree) expect() expected { return expected{n: int64(t.size)} }

func (t *rbtree) describe() Meta {
	return Meta{RootPtr: t.rootPtr}
}
