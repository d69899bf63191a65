package memctrl

import (
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs/metrics"
)

// TestQuickWearMatchesLineMap drives the paged wear tracker and a
// per-line Go map with the same write sequence and compares every
// statistic, the FillHistogram snapshot included. Each value picks a
// page out of 40 (half in the data space, half in the log space, so
// page numbers are far apart), a line in it and a burst of 1–4 writes;
// 40 pages span several slab chunks.
func TestQuickWearMatchesLineMap(t *testing.T) {
	f := func(writes []uint32) bool {
		w := newWear()
		ref := map[uint64]uint64{}
		var total uint64
		for _, v := range writes {
			page := uint64(v>>8) % 40
			base := memaddr.NVMBase
			if page%2 == 1 {
				base = memaddr.NVMLogBase
			}
			line := base + page<<wearPageShift + uint64(v&63)*memaddr.LineSize
			for n := 1 + v>>6&3; n > 0; n-- {
				w.record(line)
				ref[line]++
				total++
			}
		}
		var hi uint64
		for _, c := range ref {
			hi = max(hi, c)
		}
		mean := 0.0
		if len(ref) > 0 {
			mean = float64(total) / float64(len(ref))
		}
		if w.LinesTouched() != len(ref) || w.TotalWrites() != total ||
			w.MaxLineWrites() != hi || w.MeanLineWrites() != mean {
			return false
		}
		reg := metrics.NewRegistry()
		w.FillHistogram(reg.Histogram("paged"))
		h := reg.Histogram("map")
		for _, c := range ref {
			h.Observe(c)
		}
		snap := reg.Snapshot()
		got, want := *snap.Histogram("paged"), *snap.Histogram("map")
		got.Name = want.Name
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
