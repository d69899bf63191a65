package pageindex

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// carveKey maps a random value onto a page number in one of 64
// per-core carvings 2^18 pages apart (a 1 GiB carving of 4 KiB pages),
// a few pages into it, or onto the extremes 0 and 2^63: keys that share
// low bits and crowd the probe runs.
func carveKey(v uint16) uint64 {
	switch v >> 14 {
	case 0:
		return 0
	case 1:
		return 1 << 63
	}
	return 0x1000_0000 + uint64(v&63)<<18 + uint64(v>>6&7)
}

// checkRuns asserts the probe-run invariant: every key sits in its home
// slot or after it with no empty slot between (cyclically), so Find
// reaches it.
func checkRuns(x *Index[int]) bool {
	mask := len(x.slots) - 1
	n := 0
	for i, s := range x.slots {
		if s.key == 0 {
			continue
		}
		n++
		for j := x.home(^s.key); j != i; j = (j + 1) & mask {
			if x.slots[j].key == 0 {
				return false
			}
		}
	}
	return n == x.n
}

// TestQuickIndexMatchesMap drives an index and a Go map with the same
// seeded sequence of up to ~1 100 finds and inserts over colliding keys
// and compares every result, the length and the probe-run invariant
// after each step. A sequence starts from the zero Index or from New
// with room for part of its keys, so both grow several times.
func TestQuickIndexMatchesMap(t *testing.T) {
	f := func(seed int64, sized, length uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var x Index[int]
		if sized%2 == 1 {
			x = New[int](int(sized % 64))
		}
		ref := map[uint64]*int{}
		for i := 0; i < 64+4*int(length); i++ {
			k := carveKey(uint16(r.Uint32()))
			if got, want := x.Find(k), ref[k]; got != want {
				return false
			}
			if ref[k] == nil && r.Intn(4) != 0 {
				p := &[]int{i}[0]
				x.Insert(k, p)
				ref[k] = p
				if x.Find(k) != p {
					return false
				}
			}
			if x.Len() != len(ref) || !checkRuns(&x) {
				return false
			}
		}
		for k, p := range ref {
			x.lastKey, x.last = 0, nil // force a probe
			if x.Find(k) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// New sizes the table for its pages at no more than half load, so n
// inserts never grow it, and finds allocate nothing.
func TestNewSizedNeverGrows(t *testing.T) {
	for _, n := range []int{1, 4, 5, 100, 1000} {
		x := New[int](n)
		size := len(x.slots)
		if size < 2*n || size&(size-1) != 0 {
			t.Fatalf("New(%d) made %d slots, want a power of two >= %d", n, size, 2*n)
		}
		pages := make([]int, n)
		if a := testing.AllocsPerRun(1, func() {
			x = New[int](n)
			for i := range pages {
				x.Insert(uint64(i)<<18, &pages[i])
			}
			for i := range pages {
				if x.Find(uint64(i)<<18) != &pages[i] {
					t.Fatalf("New(%d): page %d lost", n, i)
				}
			}
		}); a != 1 {
			t.Errorf("New(%d) plus %d inserts allocated %v times, want 1", n, n, a)
		}
		if len(x.slots) != size {
			t.Errorf("New(%d) grew from %d to %d slots on %d inserts", n, size, len(x.slots), n)
		}
	}
}
