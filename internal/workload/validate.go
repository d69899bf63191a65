package workload

// One structural validator per benchmark, shared by the generator and by
// crash recovery. The invariants it checks — ordering, balance,
// reachability, no cycles — hold at every committed state, so they hold
// both on the generator's program image at the end of its stream and on
// a recovered image, which must be SOME committed prefix of the run. Each
// checker walks the image once and counts what it finds. The generator
// also knows the exact counts (expected) and compares them; a recovered
// image is checked only against the MaxElems bounds.

import (
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
)

// Meta carries the structure's anchor addresses, captured at generation
// time, so a recovered image can be validated without the live workload.
type Meta struct {
	// RootPtr is the persistent root-pointer word (rbtree, btree).
	RootPtr uint64
	// Buckets/NBuckets describe the hashtable's bucket array.
	Buckets  uint64
	NBuckets int
	// Heads/Vertices describe the graph's vertex table.
	Heads    uint64
	Vertices int
	// ArrayBase/ArrayLen describe the sps array.
	ArrayBase uint64
	ArrayLen  int
	// SharedBase/SharedLen describe the cross-core shared account array
	// (BankShared). Zero SharedLen means the workload is core-private.
	SharedBase uint64
	SharedLen  int
	// MaxElems bounds traversals (cycle detection). 64-bit because it is
	// derived from the op count, which reaches billions at paper scale.
	MaxElems int64
}

// expected is what a generator knows exactly once its stream ends.
type expected struct {
	// n is the count the walk must find: keys (rbtree, btree,
	// hashtable), edges (graph), audit records (bank, bankshared) or
	// elements (sps).
	n int64
	// BankShared only: the private counter word at counter holds seq,
	// and every shared word holds the initial balance or a tag of core,
	// because a core's own image sees only its own writes.
	counter, seq uint64
	core         int
}

// CheckImage verifies benchmark b's structural invariants against a
// recovered image.
func CheckImage(b Benchmark, meta Meta, img *memimage.Image) error {
	return validate(b, meta, img, nil)
}

// checkProgram verifies impl's program image against the exact counts
// its generator knows.
func checkProgram(b Benchmark, impl bench, img *memimage.Image) error {
	want := impl.expect()
	return validate(b, impl.describe(), img, &want)
}

// validate runs b's checker; want (nil for a recovered image) adds the
// exact counts, which also become the traversal bound.
func validate(b Benchmark, meta Meta, img *memimage.Image, want *expected) error {
	if want != nil {
		meta.MaxElems = want.n
	}
	var n int64
	var err error
	switch b {
	case SPS:
		n, err = checkSPS(meta, img)
	case Graph:
		n, err = checkGraph(meta, img)
	case Hashtable:
		n, err = checkHashtable(meta, img)
	case RBTree:
		n, err = checkRBTree(meta, img)
	case BTree:
		n, err = checkBTree(meta, img)
	case Bank:
		n, err = checkBank(meta, img)
	case BankShared:
		n, err = checkBankShared(meta, img, want)
	default:
		return fmt.Errorf("workload: no image checker for %v", b)
	}
	if err == nil && want != nil && n != want.n {
		err = fmt.Errorf("%v image holds %d elements, generator made %d", b, n, want.n)
	}
	return err
}

// checkSPS: swaps permute, so any committed prefix is exactly the
// multiset {1..n}.
func checkSPS(meta Meta, img *memimage.Image) (int64, error) {
	seen := make([]bool, meta.ArrayLen+1)
	for i := 0; i < meta.ArrayLen; i++ {
		v := img.ReadWord(meta.ArrayBase + uint64(i)*8)
		if v < 1 || v > uint64(meta.ArrayLen) {
			return 0, fmt.Errorf("sps[%d] = %d outside 1..%d", i, v, meta.ArrayLen)
		}
		if seen[v] {
			return 0, fmt.Errorf("sps value %d duplicated", v)
		}
		seen[v] = true
	}
	return int64(meta.ArrayLen), nil
}

func checkGraph(meta Meta, img *memimage.Image) (int64, error) {
	var n int64
	for v := 0; v < meta.Vertices; v++ {
		for node := img.ReadWord(meta.Heads + uint64(v)*8); node != 0; node = img.ReadWord(node + geNext*8) {
			if to := img.ReadWord(node + geTo*8); to >= uint64(meta.Vertices) {
				return 0, fmt.Errorf("graph vertex %d: edge to %d out of range", v, to)
			}
			if n++; n > meta.MaxElems {
				return 0, fmt.Errorf("graph vertex %d: cycle or overgrowth (> %d edges)", v, meta.MaxElems)
			}
		}
	}
	return n, nil
}

func checkHashtable(meta Meta, img *memimage.Image) (int64, error) {
	seen := make(map[uint64]bool)
	for i := 0; i < meta.NBuckets; i++ {
		for node := img.ReadWord(meta.Buckets + uint64(i)*8); node != 0; node = img.ReadWord(node + htNext*8) {
			key := img.ReadWord(node + htKey*8)
			if key == 0 {
				return 0, fmt.Errorf("hashtable bucket %d: zero key at %#x", i, node)
			}
			if hash(key)%uint64(meta.NBuckets) != uint64(i) {
				return 0, fmt.Errorf("hashtable key %d in wrong bucket %d", key, i)
			}
			if seen[key] {
				return 0, fmt.Errorf("hashtable key %d duplicated", key)
			}
			seen[key] = true
			if int64(len(seen)) > meta.MaxElems {
				return 0, fmt.Errorf("hashtable bucket %d: cycle or overgrowth (> %d keys)", i, meta.MaxElems)
			}
		}
	}
	return int64(len(seen)), nil
}

func checkRBTree(meta Meta, img *memimage.Image) (int64, error) {
	read := func(n, f uint64) uint64 { return img.ReadWord(n + f*8) }
	root := img.ReadWord(meta.RootPtr)
	if root == 0 {
		return 0, nil
	}
	if read(root, rbColor) != rbBlack {
		return 0, fmt.Errorf("rbtree root is red")
	}
	if p := read(root, rbParent); p != 0 {
		return 0, fmt.Errorf("rbtree root has parent %#x", p)
	}
	var count int64
	var walk func(n, lo, hi uint64) (int, error)
	walk = func(n, lo, hi uint64) (int, error) {
		if n == 0 {
			return 1, nil
		}
		if count++; count > meta.MaxElems {
			return 0, fmt.Errorf("rbtree cycle or overgrowth (> %d nodes)", meta.MaxElems)
		}
		k := read(n, rbKey)
		if k <= lo || (hi != 0 && k >= hi) {
			return 0, fmt.Errorf("rbtree node %#x key %d violates BST bounds", n, k)
		}
		l, r := read(n, rbLeft), read(n, rbRight)
		color := read(n, rbColor)
		for _, c := range [2]uint64{l, r} {
			if c == 0 {
				continue
			}
			if read(c, rbParent) != n {
				return 0, fmt.Errorf("rbtree node %#x child %#x has wrong parent", n, c)
			}
			if color == rbRed && read(c, rbColor) == rbRed {
				return 0, fmt.Errorf("rbtree red node %#x has red child", n)
			}
		}
		bl, err := walk(l, lo, k)
		if err != nil {
			return 0, err
		}
		br, err := walk(r, k, hi)
		if err != nil {
			return 0, err
		}
		if bl != br {
			return 0, fmt.Errorf("rbtree black heights differ at %#x", n)
		}
		if color == rbBlack {
			bl++
		}
		return bl, nil
	}
	_, err := walk(root, 0, 0)
	return count, err
}

// checkBTree counts leaf keys. Every internal node holds at least one
// key and each child's key range excludes one of them, so a node that
// reaches itself breaks the bounds and the walk terminates.
func checkBTree(meta Meta, img *memimage.Image) (int64, error) {
	root := img.ReadWord(meta.RootPtr)
	if root == 0 {
		return 0, fmt.Errorf("btree root pointer is nil")
	}
	header := func(n uint64) (int, bool) {
		h := img.ReadWord(n)
		return int(h & 0xffffffff), h&btLeafBit != 0
	}
	key := func(n uint64, i int) uint64 { return img.ReadWord(n + uint64(1+i)*8) }
	leafDepth := -1
	var count int64
	var leftmost uint64
	var walk func(n, lo, hi uint64, depth int) error
	walk = func(n, lo, hi uint64, depth int) error {
		c, leaf := header(n)
		// Only an empty tree's root leaf may hold no key.
		if c > btMaxKeys || c == 0 && (n != root || !leaf) {
			return fmt.Errorf("btree node %#x count %d out of range", n, c)
		}
		for i := 0; i < c; i++ {
			k := key(n, i)
			if i > 0 && k <= key(n, i-1) {
				return fmt.Errorf("btree node %#x keys unsorted", n)
			}
			if k < lo || (hi != 0 && k >= hi) {
				return fmt.Errorf("btree node %#x key %d outside [%d,%d)", n, k, lo, hi)
			}
		}
		if leaf {
			if leafDepth == -1 {
				leafDepth, leftmost = depth, n
			} else if leafDepth != depth {
				return fmt.Errorf("btree leaf depths differ (%d vs %d)", depth, leafDepth)
			}
			if count += int64(c); count > meta.MaxElems {
				return fmt.Errorf("btree overgrowth (> %d keys)", meta.MaxElems)
			}
			return nil
		}
		for i := 0; i <= c; i++ {
			child := img.ReadWord(n + uint64(8+i)*8)
			if child == 0 {
				return fmt.Errorf("btree internal node %#x has nil child %d", n, i)
			}
			clo, chi := lo, hi
			if i > 0 {
				clo = key(n, i-1)
			}
			if i < c {
				chi = key(n, i)
			}
			if err := walk(child, clo, chi, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0, 0, 0); err != nil {
		return 0, err
	}
	// The leaf chain is sorted and holds exactly the tree's keys.
	var chain int64
	var prev uint64
	for n := leftmost; n != 0; n = img.ReadWord(n + 15*8) {
		c, leaf := header(n)
		if !leaf {
			return 0, fmt.Errorf("btree leaf chain reached internal node %#x", n)
		}
		for i := 0; i < c; i++ {
			k := key(n, i)
			if k <= prev {
				return 0, fmt.Errorf("btree leaf chain not sorted at key %d", k)
			}
			prev = k
			if chain++; chain > count {
				return 0, fmt.Errorf("btree leaf chain cycle or extra keys (> %d)", count)
			}
		}
	}
	if chain != count {
		return 0, fmt.Errorf("btree leaf chain holds %d keys, tree holds %d", chain, count)
	}
	return count, nil
}

// checkBank: balances are conserved and none exceeds the money supply;
// every audit record names two distinct accounts.
func checkBank(meta Meta, img *memimage.Image) (int64, error) {
	total := uint64(meta.ArrayLen) * bankInitialBalance
	var sum uint64
	for i := 0; i < meta.ArrayLen; i++ {
		bal := img.ReadWord(meta.ArrayBase + uint64(i)*8)
		if bal > total {
			return 0, fmt.Errorf("bank account %d balance %d exceeds total money supply", i, bal)
		}
		sum += bal
	}
	if sum != total {
		return 0, fmt.Errorf("bank total %d, want %d (torn transfer)", sum, total)
	}
	var n int64
	for node := img.ReadWord(meta.RootPtr); node != 0; node = img.ReadWord(node + baNext*8) {
		from := img.ReadWord(node + baFrom*8)
		to := img.ReadWord(node + baTo*8)
		if from >= uint64(meta.ArrayLen) || to >= uint64(meta.ArrayLen) || from == to {
			return 0, fmt.Errorf("bank audit record %#x invalid (%d->%d)", node, from, to)
		}
		if n++; n > meta.MaxElems {
			return 0, fmt.Errorf("bank audit chain cycle or overgrowth (> %d records)", meta.MaxElems)
		}
	}
	return n, nil
}

// checkBankShared: the private part keeps bank's invariants (shared
// transfers never touch private balances); each shared word is either
// the initial balance or a well-formed tag from some core.
func checkBankShared(meta Meta, img *memimage.Image, want *expected) (int64, error) {
	n, err := checkBank(meta, img)
	if err != nil {
		return 0, err
	}
	if want != nil {
		if got := img.ReadWord(want.counter); got != want.seq {
			return 0, fmt.Errorf("bankshared counter %d, want %d", got, want.seq)
		}
	}
	for i := 0; i < meta.SharedLen; i++ {
		v := img.ReadWord(meta.SharedBase + uint64(i)*8)
		if v == bankInitialBalance {
			continue
		}
		c := SharedTagCore(v)
		if c < 1 || c > memaddr.MaxCores {
			return 0, fmt.Errorf("bankshared shared[%d] = %#x: malformed writer tag", i, v)
		}
		if want != nil && c != want.core+1 {
			return 0, fmt.Errorf("bankshared shared[%d] = %#x: neither initial balance nor this core's tag", i, v)
		}
	}
	return n, nil
}
