package memctrl

import "pmemaccel/internal/obs/metrics"

// Wear tracks per-line write counts of a memory space — endurance
// analysis for NVM technologies with limited write cycles. The
// transaction cache trades coalescing for decoupling (one NVM write per
// committed store), so its wear profile versus Kiln's and Optimal's is a
// first-order adoption question for STT-RAM/PCM deployments.
type Wear struct {
	counts map[uint64]uint64
	total  uint64
}

// newWear returns an empty tracker.
func newWear() *Wear {
	return &Wear{counts: make(map[uint64]uint64)}
}

// record notes one write to lineAddr.
func (w *Wear) record(lineAddr uint64) {
	w.counts[lineAddr]++
	w.total++
}

// LinesTouched reports how many distinct lines were written.
func (w *Wear) LinesTouched() int { return len(w.counts) }

// TotalWrites reports all writes.
func (w *Wear) TotalWrites() uint64 { return w.total }

// MaxLineWrites reports the hottest line's write count — the wear-out
// bound absent wear leveling.
func (w *Wear) MaxLineWrites() uint64 {
	var max uint64
	for _, c := range w.counts {
		if c > max {
			max = c
		}
	}
	return max
}

// MeanLineWrites reports the average writes per touched line.
func (w *Wear) MeanLineWrites() float64 {
	if len(w.counts) == 0 {
		return 0
	}
	return float64(w.total) / float64(len(w.counts))
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
	for _, c := range w.counts {
		h.Observe(c)
	}
}
