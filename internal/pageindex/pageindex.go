// Package pageindex maps page numbers to pages for the simulator's
// sparse paged stores: memimage's word pages and memctrl's wear-count
// pages. Both look pages up on every simulated access, in runs of one
// page (a cache line's words, a transaction's writes) broken by jumps
// between cores' carvings, so the index keeps the last page found in
// front of a hash table.
package pageindex

// Index maps page numbers to page pointers. It is an open-addressed
// hash table with keys inline in the slots, a multiplicative
// (Fibonacci) hash and linear probing, behind a one-entry cache of the
// last page found. It has no hash seed, so the same inserts give the
// same layout, growth and allocations in every run. Pages are never
// removed. A slot holds its key complemented, so a zero slot is empty
// and every page number but ^0 is a key; no byte address shifted right
// by a page shift is ^0. The table doubles when an insert would make it
// more than half full. The zero Index is empty and ready to use.
type Index[P any] struct {
	slots []slot[P] // power-of-two length, or nil
	shift uint      // 64 - log2(len(slots)), for Fibonacci hashing
	n     int       // occupied slots
	// lastKey is the complemented key of last, the most recently found
	// or inserted page; the zero value caches no page.
	lastKey uint64
	last    *P
}

type slot[P any] struct {
	key  uint64 // complemented page number; 0 when empty
	page *P
}

// minSlots is the table an empty Index grows to on its first insert.
const minSlots = 8

// New returns an empty index with room for n pages before it grows.
func New[P any](n int) Index[P] {
	if n <= 0 {
		return Index[P]{}
	}
	size, shift := minSlots, uint(64-3) // 64 - log2(minSlots)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return Index[P]{slots: make([]slot[P], size), shift: shift}
}

// Len reports the number of pages in the index.
func (x *Index[P]) Len() int { return x.n }

// Find returns page k, or nil when it is absent. A found page becomes
// the cached one.
func (x *Index[P]) Find(k uint64) *P {
	if ^k == x.lastKey {
		return x.last
	}
	return x.probe(k)
}

// probe looks k up in the table.
func (x *Index[P]) probe(k uint64) *P {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.key == ^k {
			x.lastKey, x.last = s.key, s.page
			return s.page
		}
		if s.key == 0 {
			return nil
		}
	}
}

// Insert adds page p under k, which must be absent, and makes it the
// cached page.
func (x *Index[P]) Insert(k uint64, p *P) {
	if k == ^uint64(0) {
		panic("pageindex: page number ^0 is reserved")
	}
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.place(slot[P]{key: ^k, page: p})
	x.n++
	x.lastKey, x.last = ^k, p
}

// home returns k's preferred slot: the top bits of a multiplicative hash,
// so runs of consecutive page numbers spread out.
func (x *Index[P]) home(k uint64) int {
	return int(k * 0x9E3779B97F4A7C15 >> x.shift)
}

// place puts s in the first empty slot of its probe run.
func (x *Index[P]) place(s slot[P]) {
	mask := len(x.slots) - 1
	i := x.home(^s.key)
	for x.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// grow doubles the table (an empty one gets minSlots) and rehashes every
// key.
func (x *Index[P]) grow() {
	old := x.slots
	if len(old) == 0 {
		*x = New[P](minSlots / 2)
		return
	}
	x.slots, x.shift = make([]slot[P], 2*len(old)), x.shift-1
	for _, s := range old {
		if s.key != 0 {
			x.place(s)
		}
	}
}
