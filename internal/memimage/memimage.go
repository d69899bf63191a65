// Package memimage provides functional (value-carrying) images of the
// simulated physical memory. The simulator keeps timing and data separate:
// caches and controllers model *when* accesses complete, while images model
// *what* each memory would contain. Keeping real 64-bit values in the
// durable NVM image, the transaction cache, the software log and the
// nonvolatile LLC is what makes crash/recovery testing functional rather
// than purely statistical.
package memimage

import (
	"math/bits"
	"slices"
	"sort"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/pageindex"
)

const (
	// pageShift fixes the page size at 4 KiB. Every memaddr region base
	// is 4 KiB-aligned, so a page never straddles two spaces.
	pageShift    = 12
	pageSize     = 1 << pageShift
	wordsPerPage = pageSize / memaddr.WordSize

	// Growth chunks hold as many pages as the image already has,
	// clamped to [minChunk, maxChunk].
	minChunk = 8
	maxChunk = 128
)

// pageKey is a page number: a byte address shifted right by pageShift.
type pageKey uint64

// page holds one 4 KiB page of words and a bitmap of which of them were
// ever written, so Len and ForEach keep the sparse map's semantics: a
// zero-valued write counts, an untouched word in a resident page does not.
type page struct {
	key     pageKey
	words   [wordsPerPage]uint64
	written [wordsPerPage / 64]uint64
}

// Image is a sparse, word-granular memory content image, stored as 4 KiB
// pages. Unwritten words read as zero, matching hardware that zeroes (or
// never exposes) fresh pages. The zero value is NOT usable; call New.
// Reads update the index's last-page cache, so an Image is not safe for
// concurrent use, even read-only.
type Image struct {
	pages pageindex.Index[page]
	// order lists the resident pages in ascending key order: ForEach
	// and the diffs walk it.
	order []*page
	// free is the unused tail of the newest slab chunk.
	free []page
	// n counts distinct words ever written.
	n int
}

// New returns an empty image.
func New() *Image { return &Image{} }

// NewSized returns an empty image with pages for about n words allocated
// up front in one slab, for callers that know the fill size (seeding the
// live/durable images from generated base images, building the expected
// recovery image).
func NewSized(n int) *Image {
	np := (n + wordsPerPage - 1) / wordsPerPage
	return &Image{
		pages: pageindex.New[page](np),
		order: make([]*page, 0, np),
		free:  make([]page, np),
	}
}

// find returns the resident page k, or nil.
func (m *Image) find(k pageKey) *page { return m.pages.Find(uint64(k)) }

// page returns page k, making it resident if it is not.
func (m *Image) page(k pageKey) *page {
	if p := m.find(k); p != nil {
		return p
	}
	p := m.alloc(k)
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].key > k })
	m.order = append(m.order, nil)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = p
	return p
}

// alloc carves page k from the slab and indexes it; the caller places it
// in order.
func (m *Image) alloc(k pageKey) *page {
	if len(m.free) == 0 {
		c := min(max(m.pages.Len(), minChunk), maxChunk)
		m.free = make([]page, c)
	}
	p := &m.free[0]
	m.free = m.free[1:]
	p.key = k
	m.pages.Insert(uint64(k), p)
	return p
}

// split returns addr's page key and the index of its word in the page.
func split(addr uint64) (pageKey, int) {
	return pageKey(addr >> pageShift), int(addr>>3) & (wordsPerPage - 1)
}

// ReadWord returns the 64-bit word at addr. addr is word-aligned by the
// caller's contract; misaligned addresses are aligned down.
func (m *Image) ReadWord(addr uint64) uint64 {
	k, i := split(addr)
	if p := m.find(k); p != nil {
		return p.words[i]
	}
	return 0
}

// WriteWord stores a 64-bit word at addr (aligned down).
func (m *Image) WriteWord(addr, value uint64) {
	k, i := split(addr)
	p := m.page(k)
	p.words[i] = value
	if bit := uint64(1) << (i & 63); p.written[i>>6]&bit == 0 {
		p.written[i>>6] |= bit
		m.n++
	}
}

// ReadLine returns the 8 words of the cache line containing addr.
func (m *Image) ReadLine(addr uint64) [memaddr.WordsPerLine]uint64 {
	k, i := split(memaddr.LineAddr(addr))
	if p := m.find(k); p != nil {
		return [memaddr.WordsPerLine]uint64(p.words[i : i+memaddr.WordsPerLine])
	}
	return [memaddr.WordsPerLine]uint64{}
}

// WriteLine stores 8 words at the cache line containing addr.
func (m *Image) WriteLine(addr uint64, line [memaddr.WordsPerLine]uint64) {
	k, i := split(memaddr.LineAddr(addr))
	p := m.page(k)
	copy(p.words[i:i+memaddr.WordsPerLine], line[:])
	// A line's 8 written bits are one aligned byte of a bitmap word.
	mask := uint64(1<<memaddr.WordsPerLine-1) << (i & 63)
	m.n += bits.OnesCount64(mask &^ p.written[i>>6])
	p.written[i>>6] |= mask
}

// CopyLine copies the cache line containing addr from src into m. It is
// the writeback primitive: "the volatile version of this line becomes the
// durable version".
func (m *Image) CopyLine(src *Image, addr uint64) {
	m.WriteLine(addr, src.ReadLine(addr))
}

// Len reports the number of distinct words ever written.
func (m *Image) Len() int { return m.n }

// Snapshot returns an independent deep copy, used to capture the durable
// state at a crash point. The copy's pages share one fresh slab.
func (m *Image) Snapshot() *Image {
	slab := make([]page, len(m.order))
	c := &Image{
		pages: pageindex.New[page](len(m.order)),
		order: make([]*page, len(m.order)),
		n:     m.n,
	}
	for i, p := range m.order {
		slab[i] = *p
		c.order[i] = &slab[i]
		c.pages.Insert(uint64(p.key), &slab[i])
	}
	return c
}

// Merge writes into m every word written in src on the pages whose base
// address keep accepts (every page when keep is nil), as WriteWord would
// word by word, but a page at a time: a page m lacks is copied whole, and
// a page m holds takes src's written words and ORs in its written bitmap.
// It is how the live and durable images are seeded from the per-core base
// images, and how the expected recovery image is built.
func (m *Image) Merge(src *Image, keep func(base uint64) bool) {
	kept := func(p *page) bool { return keep == nil || keep(uint64(p.key)<<pageShift) }
	fresh := 0
	for _, p := range src.order {
		if !kept(p) {
			continue
		}
		q := m.find(p.key)
		if q == nil {
			fresh++
			continue
		}
		for w, set := range p.written {
			m.n += bits.OnesCount64(set &^ q.written[w])
			q.written[w] |= set
			if set == ^uint64(0) {
				copy(q.words[w*64:(w+1)*64], p.words[w*64:])
				continue
			}
			for ; set != 0; set &= set - 1 {
				i := w*64 + bits.TrailingZeros64(set)
				q.words[i] = p.words[i]
			}
		}
	}
	// Place the fresh pages by merging their ascending keys into order
	// from the back, so no resident page moves more than once.
	i := len(m.order) - 1
	m.order = slices.Grow(m.order, fresh)[:len(m.order)+fresh]
	o := len(m.order) - 1
	for j := len(src.order) - 1; fresh > 0; j-- {
		p := src.order[j]
		if !kept(p) || m.find(p.key) != nil {
			continue
		}
		for ; i >= 0 && m.order[i].key > p.key; i, o = i-1, o-1 {
			m.order[o] = m.order[i]
		}
		q := m.alloc(p.key)
		*q = *p
		for _, set := range p.written {
			m.n += bits.OnesCount64(set)
		}
		m.order[o] = q
		o--
		fresh--
	}
}

// First returns the lowest written address on a page whose base address
// match accepts; ok is false when there is none.
func (m *Image) First(match func(base uint64) bool) (addr uint64, ok bool) {
	for _, p := range m.order {
		base := uint64(p.key) << pageShift
		if !match(base) {
			continue
		}
		for w, set := range p.written {
			if set != 0 {
				return base + uint64(w*64+bits.TrailingZeros64(set))*memaddr.WordSize, true
			}
		}
	}
	return 0, false
}

// Equal reports whether two images contain the same values at every word
// (treating absent words as zero).
func (m *Image) Equal(o *Image) bool {
	return m.DiffLimit(o, 1) == 0
}

// Diff is a single word-level difference between two images.
type Diff struct {
	Addr uint64
	A, B uint64
}

// DiffLimit counts word-level differences between m and o, stopping early
// once limit differences are found (limit <= 0 means unlimited).
func (m *Image) DiffLimit(o *Image, limit int) int {
	n := 0
	m.diff(o, nil, func(Diff) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// Diffs returns up to max word-level differences (max <= 0 means all) in
// ascending address order, so a truncated list holds the lowest
// addresses.
func (m *Image) Diffs(o *Image, max int) []Diff {
	return m.diffs(o, nil, max)
}

// SpaceDiffs is Diffs restricted to the addresses in space. A page never
// straddles two spaces, so pages outside space are skipped whole.
func (m *Image) SpaceDiffs(o *Image, space memaddr.Space, max int) []Diff {
	return m.diffs(o, func(base uint64) bool { return memaddr.Classify(base) == space }, max)
}

func (m *Image) diffs(o *Image, keep func(base uint64) bool, max int) []Diff {
	var out []Diff
	m.diff(o, keep, func(d Diff) bool {
		out = append(out, d)
		return max <= 0 || len(out) < max
	})
	return out
}

// diff calls fn with every word whose value differs between m and o
// (absent words read as zero), in ascending address order, until fn
// returns false. A non-nil keep limits the walk to the pages whose base
// address it accepts.
func (m *Image) diff(o *Image, keep func(base uint64) bool, fn func(Diff) bool) {
	var zero page
	a, b := m.order, o.order
	for len(a) > 0 || len(b) > 0 {
		// A page resident in only one image compares against zeros.
		var key pageKey
		pa, pb := &zero, &zero
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].key < b[0].key:
			key, pa, a = a[0].key, a[0], a[1:]
		case len(a) == 0 || b[0].key < a[0].key:
			key, pb, b = b[0].key, b[0], b[1:]
		default:
			key, pa, pb, a, b = a[0].key, a[0], b[0], a[1:], b[1:]
		}
		base := uint64(key) << pageShift
		if pa.words == pb.words || keep != nil && !keep(base) {
			continue
		}
		for i := range pa.words {
			if pa.words[i] != pb.words[i] {
				addr := base + uint64(i)*memaddr.WordSize
				if !fn(Diff{Addr: addr, A: pa.words[i], B: pb.words[i]}) {
					return
				}
			}
		}
	}
}

// ForEach visits every written word in ascending address order. fn must
// not write to m.
func (m *Image) ForEach(fn func(addr, value uint64)) {
	for _, p := range m.order {
		base := uint64(p.key) << pageShift
		for w, set := range p.written {
			for set != 0 {
				i := w*64 + bits.TrailingZeros64(set)
				fn(base+uint64(i)*memaddr.WordSize, p.words[i])
				set &= set - 1
			}
		}
	}
}
