package pmemaccel

import (
	"encoding/json"

	"pmemaccel/internal/cpu"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
)

// Export is the JSON-friendly projection of a Result, for downstream
// tooling (plotting scripts, regression dashboards).
type Export struct {
	Benchmark string `json:"benchmark"`
	Mechanism string `json:"mechanism"`
	Cores     int    `json:"cores"`
	Scale     int    `json:"scale"`
	Seed      uint64 `json:"seed"`
	Ops       int    `json:"ops_per_core"`

	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	Transactions uint64  `json:"transactions"`
	IPC          float64 `json:"ipc"`
	Throughput   float64 `json:"tx_per_kcycle"`

	L1MissRate  float64 `json:"l1_miss_rate"`
	L2MissRate  float64 `json:"l2_miss_rate"`
	LLCMissRate float64 `json:"llc_miss_rate"`

	NVMReads  uint64 `json:"nvm_reads"`
	NVMWrites uint64 `json:"nvm_writes"`
	DRAMReads uint64 `json:"dram_reads"`

	// Effective channel counts (after defaulting) and the per-NVM-channel
	// write split, in interleave order — flat for a balanced interleave,
	// skewed when the working set camps on few interleave blocks.
	NVMChannels      int      `json:"nvm_channels"`
	DRAMChannels     int      `json:"dram_channels"`
	NVMChannelWrites []uint64 `json:"nvm_channel_writes,omitempty"`

	PloadMean float64 `json:"pload_mean_cycles"`
	PloadP50  uint64  `json:"pload_p50_cycles"`
	PloadP99  uint64  `json:"pload_p99_cycles"`

	NVMLinesTouched int     `json:"nvm_lines_touched"`
	NVMWearMax      uint64  `json:"nvm_wear_max"`
	NVMWearHotness  float64 `json:"nvm_wear_hotness"`

	// TCFullStallPct is the mean share of core cycles a persistent
	// store spent rejected and retried: transaction cache full, or the
	// line arbiter's one-cycle shared-line arbitration stall.
	TCFullStallPct   float64 `json:"tc_full_stall_pct"`
	DurableDiffCount int     `json:"durable_diff_count"`

	// Contention surface (contended benchmarks only; omitted when the
	// run had no aborts and no shared-line arbitration).
	TxAborts           uint64  `json:"tx_aborts,omitempty"`
	AbortRate          float64 `json:"abort_rate,omitempty"`
	WastedInstructions uint64  `json:"wasted_instructions,omitempty"`
	LineConflicts      uint64  `json:"line_conflicts,omitempty"`
	LineAcquires       uint64  `json:"line_acquires,omitempty"`

	// SkippedCycles is the kernel's fast-forward audit counter: how many
	// of Cycles were jumped because every component was asleep and none
	// held the clock, rather than stepped. Held cycles count as stepped
	// even where the kernel jumps them. Always 0 under -no-ff.
	SkippedCycles uint64 `json:"skipped_cycles"`

	// Attribution is the all-core cycle breakdown as percentages of the
	// performance window, keyed by cpu.BreakdownCategories.
	Attribution map[string]float64 `json:"cycle_attribution_pct"`

	// Metrics is the run-wide metrics snapshot — histogram percentiles,
	// counters, gauges. Present only when the run enabled
	// Config.Obs.Metrics.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`

	// Event-trace ring accounting (zero/absent when observability is
	// off): a nonzero dropped count flags a trace export that holds
	// only a suffix of the run.
	ObsEventsRecorded   uint64 `json:"obs_events_recorded,omitempty"`
	ObsEventsDropped    uint64 `json:"obs_events_dropped,omitempty"`
	ObsOpenSpansFlushed uint64 `json:"obs_open_spans_flushed,omitempty"`

	// TxFlight is the flight recorder's sampled-transaction aggregate
	// (per-stage cycle sums, critical-stage counts, end-to-end total).
	// Present only when the run enabled Config.Obs.TxSample.
	TxFlight *obs.FlightAggregate `json:"tx_flight,omitempty"`
}

// Export builds the JSON projection.
func (r *Result) Export() Export {
	e := Export{
		Benchmark:    r.Config.Benchmark.String(),
		Mechanism:    r.Config.Mechanism.String(),
		Cores:        r.Config.Cores,
		Scale:        r.Config.Scale,
		Seed:         r.Config.Seed,
		Ops:          r.Config.Ops,
		Cycles:       r.Cycles,
		Instructions: r.TotalInstructions(),
		Transactions: r.TotalTransactions(),
		IPC:          r.IPC(),
		Throughput:   r.Throughput(),
		L1MissRate:   r.L1MissRate,
		L2MissRate:   r.L2MissRate,
		LLCMissRate:  r.LLCMissRate,
		NVMReads:     r.NVM.Reads,
		NVMWrites:    r.NVM.Writes,
		DRAMReads:    r.DRAM.Reads,
		NVMChannels:  len(r.PerNVMChannel),
		DRAMChannels: len(r.PerDRAMChannel),
		PloadMean:    r.AvgPersistentLoadLatency(),
		PloadP50:     r.PloadP50,
		PloadP99:     r.PloadP99,

		NVMLinesTouched:  r.NVMLinesTouched,
		NVMWearMax:       r.NVMWearMax,
		NVMWearHotness:   r.NVMWearHotness,
		DurableDiffCount: r.DurableDiffCount,

		TxAborts:           r.TotalTxAborts(),
		AbortRate:          r.AbortRate(),
		WastedInstructions: r.TotalWastedInstructions(),
		LineConflicts:      r.Arb.Conflicts,
		LineAcquires:       r.Arb.Acquires,

		SkippedCycles:       r.SkippedCycles,
		Metrics:             r.Metrics,
		ObsEventsRecorded:   r.ObsEventsRecorded,
		ObsEventsDropped:    r.ObsEventsDropped,
		ObsOpenSpansFlushed: r.ObsOpenSpansFlushed,
		TxFlight:            r.TxFlight,
	}
	if len(r.PerNVMChannel) > 1 {
		e.NVMChannelWrites = make([]uint64, len(r.PerNVMChannel))
		for i, s := range r.PerNVMChannel {
			e.NVMChannelWrites[i] = s.Writes
		}
	}
	e.TCFullStallPct = r.TCFullStallFraction() * 100
	if n := uint64(len(r.PerCore)) * r.Cycles; n > 0 {
		e.Attribution = make(map[string]float64, len(cpu.BreakdownCategories))
		agg := make([]uint64, len(cpu.BreakdownCategories))
		for _, st := range r.PerCore {
			for i, v := range st.Breakdown.Values() {
				agg[i] += v
			}
		}
		for i, name := range cpu.BreakdownCategories {
			e.Attribution[name] = float64(agg[i]) / float64(n) * 100
		}
	}
	return e
}

// MarshalJSON serializes the Result through its Export projection, so
// `json.Marshal(result)` just works.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Export())
}
