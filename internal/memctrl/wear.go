package memctrl

import (
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/pageindex"
)

// Wear tracks per-line write counts of a memory space — endurance
// analysis for NVM technologies with limited write cycles. The
// transaction cache trades coalescing for decoupling (one NVM write per
// committed store), so its wear profile versus Kiln's and Optimal's is a
// first-order adoption question for STT-RAM/PCM deployments.
type Wear struct {
	// pages indexes the count pages by page number (line address >>
	// wearPageShift); its last-page cache lets a run of writes to one
	// page skip the table.
	pages pageindex.Index[wearPage]
	// order lists the pages in first-write order for the collection
	// walks; free is the unused tail of the newest slab chunk, so a new
	// page costs no allocation of its own.
	order []*wearPage
	free  []wearPage
	lines int // distinct lines written
	total uint64
}

const (
	// wearPageShift fixes a count page at 4 KiB of address space: one
	// count per line, 64 lines a page.
	wearPageShift = 12
	linesPerPage  = 1 << wearPageShift / memaddr.LineSize

	// Slab chunks hold as many pages as the tracker already has,
	// clamped to [minWearChunk, maxWearChunk].
	minWearChunk = 8
	maxWearChunk = 128
)

// wearPage holds the write counts of one 4 KiB page's lines.
type wearPage [linesPerPage]uint64

// newWear returns an empty tracker.
func newWear() *Wear { return &Wear{} }

// record notes one write to lineAddr.
func (w *Wear) record(lineAddr uint64) {
	k := lineAddr >> wearPageShift
	p := w.pages.Find(k)
	if p == nil {
		p = w.page(k)
	}
	c := &p[lineAddr/memaddr.LineSize%linesPerPage]
	if *c == 0 {
		w.lines++
	}
	*c++
	w.total++
}

// page carves new page k from the slab and indexes it.
func (w *Wear) page(k uint64) *wearPage {
	if len(w.free) == 0 {
		w.free = make([]wearPage, min(max(len(w.order), minWearChunk), maxWearChunk))
	}
	p := &w.free[0]
	w.free = w.free[1:]
	w.pages.Insert(k, p)
	w.order = append(w.order, p)
	return p
}

// LinesTouched reports how many distinct lines were written.
func (w *Wear) LinesTouched() int { return w.lines }

// TotalWrites reports all writes.
func (w *Wear) TotalWrites() uint64 { return w.total }

// MaxLineWrites reports the hottest line's write count — the wear-out
// bound absent wear leveling.
func (w *Wear) MaxLineWrites() uint64 {
	var hi uint64
	for _, p := range w.order {
		for _, c := range p {
			hi = max(hi, c)
		}
	}
	return hi
}

// MeanLineWrites reports the average writes per touched line.
func (w *Wear) MeanLineWrites() float64 {
	if w.lines == 0 {
		return 0
	}
	return float64(w.total) / float64(w.lines)
}

// Hotness is the max/mean ratio: 1.0 is perfectly even wear; large values
// mean a few lines absorb most writes (the log head, hot tree nodes).
func (w *Wear) Hotness() float64 {
	mean := w.MeanLineWrites()
	if mean == 0 {
		return 0
	}
	return float64(w.MaxLineWrites()) / mean
}

// FillHistogram streams the per-line write-count distribution into h:
// one observation per touched line, valued at that line's write count.
// The result is the wear distribution the per-line studies ask for —
// p50/p99/max writes-per-line — computed once at collection time (wear
// counts are only final at end of run, so this is not a hot path).
func (w *Wear) FillHistogram(h *metrics.Histogram) {
	if h == nil {
		return
	}
	for _, p := range w.order {
		for _, c := range p {
			if c != 0 {
				h.Observe(c)
			}
		}
	}
}
