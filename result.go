package pmemaccel

import (
	"fmt"
	"strings"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/stats"
	"pmemaccel/internal/txcache"
)

// Result is everything one run measured — the raw material for every
// figure in the paper's evaluation.
type Result struct {
	Config Config

	// Cycles is the performance window: cycle 0 to the last core's
	// retirement (post-run drains excluded, as in the paper).
	Cycles uint64

	PerCore []cpu.Stats
	Hier    cache.Stats

	L1MissRate  float64
	L2MissRate  float64
	LLCMissRate float64

	// NVM and DRAM aggregate each space's controller activity across
	// its channels (for the default 1x1 topology they are exactly the
	// single channel's counters). PerNVMChannel/PerDRAMChannel keep the
	// per-channel split, in interleave order.
	NVM  memctrl.Stats
	DRAM memctrl.Stats

	PerNVMChannel  []memctrl.Stats
	PerDRAMChannel []memctrl.Stats

	// TC holds per-core transaction cache stats (TCache runs only).
	TC []txcache.Stats

	// Arb holds the machine-wide shared-line arbitration counters. All
	// zero unless the workload has a cross-core shared region
	// (workload.BankShared).
	Arb txcache.ArbStats

	// DurableDiffs is the end-of-run consistency check: recovered NVM
	// state versus the committed-transaction oracle. Empty for every
	// mechanism that guarantees persistence; Optimal is exempt from the
	// check (it guarantees nothing) and reports -1.
	DurableDiffCount int

	// PloadP50/P99 are persistent-load latency percentiles (upper
	// bounds from log2 buckets) — tail behaviour behind Figure 10's
	// mean.
	PloadP50, PloadP99 uint64

	// NVM endurance profile: distinct lines written, mean and max
	// writes per line, and the max/mean hotness ratio. The TC's
	// uncoalesced write stream is an endurance trade-off the paper
	// does not quantify; we do.
	NVMLinesTouched int
	NVMWearMean     float64
	NVMWearMax      uint64
	NVMWearHotness  float64

	// Metrics is the run-wide metrics snapshot: latency/burst/drain
	// histogram percentiles plus counters and gauges mirrored from the
	// component stats. Nil unless Config.Obs.Metrics was set.
	Metrics *metrics.Snapshot

	// Ring-buffer accounting for the event trace: how many events the
	// run recorded, how many the bounded ring overwrote (a nonzero
	// count means the exported trace is a suffix of the run), and how
	// many still-open spans collection flushed. All zero when
	// Config.Obs is disabled.
	ObsEventsRecorded   uint64
	ObsEventsDropped    uint64
	ObsOpenSpansFlushed uint64

	// TxFlight is the flight recorder's aggregate: sampled-transaction
	// stage waterfalls reduced to per-stage cycle sums, critical-stage
	// verdict counts, and the end-to-end total (the stage-sum
	// invariant: StageCycles sums exactly to E2ECycles). Nil unless
	// Config.Obs.TxSample was set.
	TxFlight *obs.FlightAggregate

	// SkippedCycles is how many cycles the kernel fast-forwarded
	// because every component was asleep and none held the clock — the
	// audit trail for `-no-ff` equivalence runs (which must report 0)
	// and for judging how much of a run the event-driven mode covered.
	// Skipped cycles are real simulated cycles (they are included in
	// Cycles); this counter only records that no component ticked in
	// them. Components also sleep while others are awake; those cycles
	// are stepped, not counted here. Nor are the cycles of a held wait
	// (a core at TX_END, an SP pcommit, a TCache fall-back commit): the
	// kernel jumps them too, but counts them as stepped, as for a waiter
	// that re-checks its condition every cycle (DESIGN.md §10).
	SkippedCycles uint64
}

func (s *System) collect(cycles uint64) *Result {
	// Close the observability record before reading it out: spans still
	// open (a TC drain burst, a write-drain window) are flushed into the
	// trace as explicit open-span events instead of being dropped.
	s.Obs.FlushOpenSpans(s.Kernel.Now())
	r := &Result{Config: s.Config, Cycles: cycles}
	r.SkippedCycles = s.Kernel.Skipped()
	p := s.Obs.Probe()
	r.ObsEventsRecorded = p.Recorded()
	r.ObsEventsDropped = p.Dropped()
	r.ObsOpenSpansFlushed = p.OpenSpansFlushed()
	if fr := s.Obs.Flight(); fr != nil {
		agg := fr.Aggregate()
		r.TxFlight = &agg
	}
	for _, c := range s.Cores {
		st := c.Stats()
		// Idle closes the attribution: every unfinished cycle ticked
		// exactly one busy bucket, so idle is the remainder of the
		// performance window after the core retired its last
		// instruction.
		if busy := st.Breakdown.Busy(); cycles > busy {
			st.Breakdown.Idle = cycles - busy
		}
		r.PerCore = append(r.PerCore, st)
	}
	r.Hier = s.Hier.Stats()

	var l1h, l1m, l2h, l2m uint64
	for c := 0; c < s.Config.Cores; c++ {
		l1h += s.Hier.L1(c).Hits
		l1m += s.Hier.L1(c).Misses
		l2h += s.Hier.L2(c).Hits
		l2m += s.Hier.L2(c).Misses
	}
	if l1h+l1m > 0 {
		r.L1MissRate = float64(l1m) / float64(l1h+l1m)
	}
	if l2h+l2m > 0 {
		r.L2MissRate = float64(l2m) / float64(l2h+l2m)
	}
	r.LLCMissRate = s.Hier.LLC().MissRate()

	r.NVM = s.Backend.NVMStats()
	r.DRAM = s.Backend.DRAMStats()
	r.PerNVMChannel = s.Backend.NVMChannelStats()
	r.PerDRAMChannel = s.Backend.DRAMChannelStats()

	if tp, ok := s.Mech.(mechanism.TCIntrospector); ok {
		r.TC = tp.TCStatsAll()
	}
	if s.Arb != nil {
		r.Arb = s.Arb.Stats()
	}

	var hist [18]uint64
	for _, st := range r.PerCore {
		hist = cpu.MergeHist(hist, st.PloadHist)
	}
	agg := cpu.Stats{PersistentLoads: 0, PloadHist: hist}
	for _, st := range r.PerCore {
		agg.PersistentLoads += st.PersistentLoads
	}
	r.PloadP50 = cpu.PloadPercentile(agg, 0.5)
	r.PloadP99 = cpu.PloadPercentile(agg, 0.99)

	wear := s.Backend.NVMWear()
	r.NVMLinesTouched = wear.LinesTouched()
	r.NVMWearMean = wear.MeanLineWrites()
	r.NVMWearMax = wear.MaxLineWrites()
	r.NVMWearHotness = wear.Hotness()

	if s.Config.Mechanism == Optimal {
		r.DurableDiffCount = -1
	} else {
		r.DurableDiffCount = len(CheckDurable(s.ExpectedDurable(), s.RecoveredDurable(), 0))
	}

	if reg := s.Obs.Metrics(); reg != nil {
		// Collect-time fills: distributions only final at end of run
		// (wear), and counters/gauges the components already track
		// exactly — mirroring them here costs nothing on the hot path.
		wear.FillHistogram(reg.Histogram("nvm_line_writes"))
		fillStatMetrics(reg, r)
		r.Metrics = reg.Snapshot()
	}
	return r
}

// fillStatMetrics mirrors already-exact component counters into the
// registry so the snapshot is a self-contained run summary: the
// histograms' percentile rows sit beside the counts that contextualize
// them (side-probe hit latency beside the hit count, drain-window
// cycles beside the write totals).
func fillStatMetrics(reg *metrics.Registry, r *Result) {
	reg.Counter("instructions").Add(r.TotalInstructions())
	reg.Counter("transactions").Add(r.TotalTransactions())
	reg.Counter("nvm_reads").Add(r.NVM.Reads)
	reg.Counter("nvm_writes").Add(r.NVM.Writes)
	reg.Counter("dram_reads").Add(r.DRAM.Reads)
	reg.Counter("llc_dropped_evictions").Add(r.Hier.DroppedEvictions)
	reg.Counter("side_probes").Add(r.Hier.SidePathProbes)
	reg.Counter("side_probe_hits").Add(r.Hier.SidePathHits)
	reg.Counter("skipped_cycles").Add(r.SkippedCycles)
	reg.Counter("obs_events_recorded").Add(r.ObsEventsRecorded)
	reg.Counter("obs_events_dropped").Add(r.ObsEventsDropped)
	reg.Counter("obs_open_spans_flushed").Add(r.ObsOpenSpansFlushed)
	reg.Gauge("cycles").SetMax(int64(r.Cycles))
	reg.Gauge("nvm_write_queue_peak").SetMax(int64(r.NVM.WriteQueuePeak))
	reg.Gauge("nvm_read_latency_max").SetMax(int64(r.NVM.ReadLatencyMax))
	reg.Gauge("nvm_lines_touched").SetMax(int64(r.NVMLinesTouched))
}

// TotalInstructions sums retired instructions across cores.
func (r *Result) TotalInstructions() uint64 {
	var n uint64
	for _, s := range r.PerCore {
		n += s.Instructions
	}
	return n
}

// TotalTransactions sums committed transactions across cores.
func (r *Result) TotalTransactions() uint64 {
	var n uint64
	for _, s := range r.PerCore {
		n += s.Transactions
	}
	return n
}

// TotalTxAborts sums aborted transaction attempts across cores — each a
// lost shared-line arbitration that rolled the transaction back to its
// TX_BEGIN.
func (r *Result) TotalTxAborts() uint64 {
	var n uint64
	for _, s := range r.PerCore {
		n += s.TxAborts
	}
	return n
}

// TotalWastedInstructions sums instructions executed by transaction
// attempts that later aborted (they are also counted in Instructions —
// wasted work is real work).
func (r *Result) TotalWastedInstructions() uint64 {
	var n uint64
	for _, s := range r.PerCore {
		n += s.WastedInstructions
	}
	return n
}

// AbortRate is aborted attempts per transaction attempt (commits plus
// aborts); 0 for uncontended runs.
func (r *Result) AbortRate() float64 {
	aborts := r.TotalTxAborts()
	if total := r.TotalTransactions() + aborts; total > 0 {
		return float64(aborts) / float64(total)
	}
	return 0
}

// IPC is aggregate instructions per cycle (Figure 6's metric).
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInstructions()) / float64(r.Cycles)
}

// Throughput is transactions per kilocycle (Figure 7's metric, scaled
// for readability).
func (r *Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalTransactions()) / float64(r.Cycles) * 1000
}

// AvgPersistentLoadLatency is the mean cycles per persistent load
// (Figure 10's metric).
func (r *Result) AvgPersistentLoadLatency() float64 {
	var sum, n uint64
	for _, s := range r.PerCore {
		sum += s.PersistentLoadLatencySum
		n += s.PersistentLoads
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// NVMWriteTraffic is the write count at the NVM channel (Figure 9's
// metric).
func (r *Result) NVMWriteTraffic() uint64 { return r.NVM.Writes }

// TCFullStallFraction reports the fraction of core-cycles spent in
// rejected-and-retried persistent stores (Breakdown.TCFullStall): TC-full
// stalls, §5.2, plus the line arbiter's one-cycle arbitration stalls.
func (r *Result) TCFullStallFraction() float64 {
	var stall, total uint64
	for _, s := range r.PerCore {
		stall += s.Breakdown.TCFullStall
		total += r.Cycles
	}
	if total == 0 {
		return 0
	}
	return float64(stall) / float64(total)
}

// AttributionTable renders the per-core cycle attribution (where every
// cycle of the performance window went) as percentages of Cycles, one
// row per core plus an all-core aggregate.
func (r *Result) AttributionTable() string {
	rows := make([]string, 0, len(r.PerCore)+1)
	vals := make([][]float64, 0, len(r.PerCore)+1)
	agg := make([]uint64, len(cpu.BreakdownCategories))
	for c, st := range r.PerCore {
		rows = append(rows, fmt.Sprintf("core%d", c))
		vs := st.Breakdown.Values()
		row := make([]float64, len(vs))
		for i, v := range vs {
			agg[i] += v
			if r.Cycles > 0 {
				row[i] = float64(v) / float64(r.Cycles) * 100
			}
		}
		vals = append(vals, row)
	}
	rows = append(rows, "all")
	aggRow := make([]float64, len(agg))
	if n := uint64(len(r.PerCore)) * r.Cycles; n > 0 {
		for i, v := range agg {
			aggRow[i] = float64(v) / float64(n) * 100
		}
	}
	vals = append(vals, aggRow)
	return stats.Crosstab("cycle attribution (% of cycles)", rows, cpu.BreakdownCategories, vals)
}

// String summarizes the run for humans.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: %d cycles, IPC %.3f, %.3f tx/kcycle, LLC miss %.2f%%, NVM writes %d, pload %.1f cy",
		r.Config.Benchmark, r.Config.Mechanism, r.Cycles, r.IPC(), r.Throughput(),
		r.LLCMissRate*100, r.NVMWriteTraffic(), r.AvgPersistentLoadLatency())
	if aborts := r.TotalTxAborts(); aborts > 0 {
		fmt.Fprintf(&b, ", %d aborts (%.1f%%), %d wasted instr, %d line conflicts",
			aborts, r.AbortRate()*100, r.TotalWastedInstructions(), r.Arb.Conflicts)
	}
	if r.DurableDiffCount > 0 {
		fmt.Fprintf(&b, " [INCONSISTENT: %d diffs]", r.DurableDiffCount)
	}
	return b.String()
}
