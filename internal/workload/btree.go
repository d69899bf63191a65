package workload

import (
	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// btree is the B+tree search/insert benchmark. Nodes are 16-word
// persistent blocks:
//
//	word 0      header: count (low 32 bits) | leaf flag (bit 63)
//	words 1..7  keys[0..6]              (max 7 keys per node)
//	words 8..15 leaf:     values[0..6] + next-leaf pointer (word 15)
//	            internal: children[0..7]
//
// Keys within a node stay sorted, so inserts shift keys/values with traced
// loads and stores — the in-node write amplification characteristic of
// B+trees. Splits allocate a sibling, move the upper half, and push a
// separator into the parent (recursively), all inside the operation's one
// durable transaction.
type btree struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	rootPtr  uint64
	size     int
	inserted []uint64
}

const (
	btNodeWords = 16
	btMaxKeys   = 7
	btLeafBit   = uint64(1) << 63
)

func newBTree(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *btree {
	return &btree{rec: rec, heap: hp, rng: rng}
}

func (t *btree) header(n uint64) (count int, leaf bool) {
	h := t.rec.LoadDep(n)
	return int(h & 0xffffffff), h&btLeafBit != 0
}

func (t *btree) setHeader(n uint64, count int, leaf bool) {
	h := uint64(count)
	if leaf {
		h |= btLeafBit
	}
	t.rec.Store(n, h)
}

func (t *btree) keyAddr(n uint64, i int) uint64  { return n + uint64(1+i)*8 }
func (t *btree) slotAddr(n uint64, i int) uint64 { return n + uint64(8+i)*8 }
func (t *btree) nextLeafAddr(n uint64) uint64    { return n + 15*8 }

func (t *btree) newNode(leaf bool) (uint64, error) {
	n, err := t.heap.Alloc(btNodeWords)
	if err != nil {
		return 0, err
	}
	t.rec.Compute(CostAlloc)
	t.setHeader(n, 0, leaf)
	return n, nil
}

func (t *btree) setup(n int) error {
	rp, err := t.heap.Alloc(1)
	if err != nil {
		return err
	}
	t.rootPtr = rp
	root, err := t.newNode(true)
	if err != nil {
		return err
	}
	t.rec.Store(t.rootPtr, root)
	for i := 0; i < n; i++ {
		if err := t.insert(t.nextKey(), t.rng.Uint64()); err != nil {
			return err
		}
	}
	return nil
}

func (t *btree) nextKey() uint64 {
	return t.rng.Uint64()%1_000_000_007 + 1
}

// search descends to the leaf and scans it, read-only.
func (t *btree) search(key uint64) (value uint64, found bool) {
	n := t.rec.Load(t.rootPtr)
	for {
		count, leaf := t.header(n)
		t.rec.Compute(CostNodeVisit)
		if leaf {
			for i := 0; i < count; i++ {
				if t.rec.LoadDep(t.keyAddr(n, i)) == key {
					return t.rec.LoadDep(t.slotAddr(n, i)), true
				}
			}
			return 0, false
		}
		child := count // rightmost by default
		for i := 0; i < count; i++ {
			if key < t.rec.LoadDep(t.keyAddr(n, i)) {
				child = i
				break
			}
		}
		n = t.rec.LoadDep(t.slotAddr(n, child))
	}
}

// leafShiftIn inserts (key, value) at index pos of a leaf holding count
// entries, shifting the tail right with traced accesses.
func (t *btree) leafShiftIn(n uint64, pos, count int, key, value uint64) {
	for i := count; i > pos; i-- {
		t.rec.Store(t.keyAddr(n, i), t.rec.LoadDep(t.keyAddr(n, i-1)))
		t.rec.Store(t.slotAddr(n, i), t.rec.LoadDep(t.slotAddr(n, i-1)))
	}
	t.rec.Store(t.keyAddr(n, pos), key)
	t.rec.Store(t.slotAddr(n, pos), value)
}

// internalShiftIn inserts separator key at key-index pos of internal node
// n (count keys), placing the new right child at child-slot pos+1.
func (t *btree) internalShiftIn(n uint64, pos, count int, key, child uint64) {
	for i := count; i > pos; i-- {
		t.rec.Store(t.keyAddr(n, i), t.rec.LoadDep(t.keyAddr(n, i-1)))
	}
	for i := count + 1; i > pos+1; i-- {
		t.rec.Store(t.slotAddr(n, i), t.rec.LoadDep(t.slotAddr(n, i-1)))
	}
	t.rec.Store(t.keyAddr(n, pos), key)
	t.rec.Store(t.slotAddr(n, pos+1), child)
}

// insertRec inserts below node n. If n split, it returns the promoted
// separator and the new right sibling. added reports whether a fresh key
// was added (false on duplicate update).
func (t *btree) insertRec(n uint64, key, value uint64) (sep, right uint64, split, added bool, err error) {
	count, leaf := t.header(n)
	t.rec.Compute(CostNodeVisit)

	if leaf {
		pos := count
		for i := 0; i < count; i++ {
			k := t.rec.LoadDep(t.keyAddr(n, i))
			if k == key {
				t.rec.Store(t.slotAddr(n, i), value)
				return 0, 0, false, false, nil
			}
			if key < k {
				pos = i
				break
			}
		}
		if count < btMaxKeys {
			t.leafShiftIn(n, pos, count, key, value)
			t.setHeader(n, count+1, true)
			return 0, 0, false, true, nil
		}
		// Split the leaf: left keeps mid entries, sibling takes the
		// rest, then the pending entry lands in the proper half. The
		// separator is the sibling's first key (B+tree convention:
		// the separator stays in the right leaf).
		sib, err := t.newNode(true)
		if err != nil {
			return 0, 0, false, false, err
		}
		const mid = (btMaxKeys + 1) / 2 // 4
		moved := count - mid            // 3
		for i := 0; i < moved; i++ {
			t.rec.Store(t.keyAddr(sib, i), t.rec.LoadDep(t.keyAddr(n, mid+i)))
			t.rec.Store(t.slotAddr(sib, i), t.rec.LoadDep(t.slotAddr(n, mid+i)))
		}
		t.rec.Store(t.nextLeafAddr(sib), t.rec.LoadDep(t.nextLeafAddr(n)))
		t.rec.Store(t.nextLeafAddr(n), sib)
		if pos <= mid {
			t.leafShiftIn(n, pos, mid, key, value)
			t.setHeader(n, mid+1, true)
			t.setHeader(sib, moved, true)
		} else {
			t.leafShiftIn(sib, pos-mid, moved, key, value)
			t.setHeader(n, mid, true)
			t.setHeader(sib, moved+1, true)
		}
		return t.rec.LoadDep(t.keyAddr(sib, 0)), sib, true, true, nil
	}

	// Internal node: descend.
	c := count
	for i := 0; i < count; i++ {
		if key < t.rec.LoadDep(t.keyAddr(n, i)) {
			c = i
			break
		}
	}
	child := t.rec.LoadDep(t.slotAddr(n, c))
	csep, cright, csplit, added, err := t.insertRec(child, key, value)
	if err != nil || !csplit {
		return 0, 0, false, added, err
	}
	// Insert (csep, cright) at key index c.
	if count < btMaxKeys {
		t.internalShiftIn(n, c, count, csep, cright)
		t.setHeader(n, count+1, false)
		return 0, 0, false, added, nil
	}
	// Split this internal node: promote keys[mid]; left keeps keys
	// [0,mid) and children [0,mid]; the sibling takes keys (mid,count)
	// and children (mid,count].
	sib, err := t.newNode(false)
	if err != nil {
		return 0, 0, false, false, err
	}
	const mid = btMaxKeys / 2 // 3
	promoted := t.rec.LoadDep(t.keyAddr(n, mid))
	for i := 0; i < count-mid-1; i++ {
		t.rec.Store(t.keyAddr(sib, i), t.rec.LoadDep(t.keyAddr(n, mid+1+i)))
	}
	for i := 0; i < count-mid; i++ {
		t.rec.Store(t.slotAddr(sib, i), t.rec.LoadDep(t.slotAddr(n, mid+1+i)))
	}
	if c <= mid {
		t.internalShiftIn(n, c, mid, csep, cright)
		t.setHeader(n, mid+1, false)
		t.setHeader(sib, count-mid-1, false)
	} else {
		t.internalShiftIn(sib, c-mid-1, count-mid-1, csep, cright)
		t.setHeader(n, mid, false)
		t.setHeader(sib, count-mid, false)
	}
	return promoted, sib, true, added, nil
}

// insert adds key->value (update in place on duplicate) in one durable
// transaction.
func (t *btree) insert(key, value uint64) error {
	t.rec.TxBegin()
	defer t.rec.TxEnd()
	root := t.rec.Load(t.rootPtr)
	sep, right, split, added, err := t.insertRec(root, key, value)
	if err != nil {
		return err
	}
	if split {
		newRoot, err := t.newNode(false)
		if err != nil {
			return err
		}
		t.rec.Store(t.keyAddr(newRoot, 0), sep)
		t.rec.Store(t.slotAddr(newRoot, 0), root)
		t.rec.Store(t.slotAddr(newRoot, 1), right)
		t.setHeader(newRoot, 1, false)
		t.rec.Store(t.rootPtr, newRoot)
	}
	if added {
		t.size++
		t.inserted = append(t.inserted, key)
	}
	return nil
}

func (t *btree) op(searches int) error {
	t.rec.Compute(CostOpSetup)
	for s := 0; s < searches && len(t.inserted) > 0; s++ {
		t.search(t.inserted[t.rng.Intn(len(t.inserted))])
	}
	if len(t.inserted) > 0 && t.rng.Intn(8) == 0 {
		return t.insert(t.inserted[t.rng.Intn(len(t.inserted))], t.rng.Uint64())
	}
	return t.insert(t.nextKey(), t.rng.Uint64())
}

func (t *btree) expect() expected { return expected{n: int64(t.size)} }

func (t *btree) describe() Meta {
	return Meta{RootPtr: t.rootPtr}
}
