package pmemaccel

import (
	"reflect"
	"testing"

	"pmemaccel/internal/workload"
)

// observationCells are the benchmark's four cells at small ops, the
// contended 16-core TCache cell, and btree on a 512-byte TC, whose runs
// park TC-full stores and overflow transactions to the fall-back path.
func observationCells() map[string]Config {
	cell := func(b workload.Benchmark, m Kind, cores, ops int) Config {
		cfg := DefaultConfig(b, m)
		cfg.Scale = 128
		cfg.Cores = cores
		cfg.Ops = ops
		return cfg
	}
	bank := cell(workload.BankShared, TCache, 16, 200)
	bank.ContentionPct = 0.5
	btree := cell(workload.BTree, TCache, 4, 300)
	btree.TCBytes = 512
	return map[string]Config{
		"rbtree-tcache-4c":      cell(workload.RBTree, TCache, 4, 300),
		"sps-sp-4c":             cell(workload.SPS, SP, 4, 300),
		"bankshared-tcache-16c": bank,
		"graph-optimal-4c":      cell(workload.Graph, Optimal, 4, 300),
		"bankshared-16c":        cell(workload.BankShared, TCache, 16, 300),
		"btree-tcache-512":      btree,
	}
}

// TestObservationDoesNotPerturbRun pins the rule that no component reads
// the observer to decide what to do: a run with the event trace, the
// metrics registry and the flight recorder (every transaction sampled)
// all switched on produces the unobserved Result — fast-forwarded
// cycles included — apart from the observation's own outputs. The
// sampler stays off: its kernel event is a real event the clock stops
// at.
func TestObservationDoesNotPerturbRun(t *testing.T) {
	for name, cfg := range observationCells() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Obs = ObsConfig{Enabled: true, Metrics: true, TxSample: 1}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.ObsEventsRecorded == 0 || got.Metrics == nil || got.TxFlight == nil {
				t.Fatal("observed run produced no trace, metrics or flight aggregate")
			}
			if got.ObsEventsDropped != 0 {
				t.Errorf("the trace ring dropped %d events", got.ObsEventsDropped)
			}
			got.Config.Obs = ObsConfig{}
			got.Metrics, got.TxFlight = nil, nil
			got.ObsEventsRecorded, got.ObsEventsDropped, got.ObsOpenSpansFlushed = 0, 0, 0
			if got.SkippedCycles != base.SkippedCycles {
				t.Errorf("skipped cycles %d observed, %d unobserved", got.SkippedCycles, base.SkippedCycles)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("observed run diverges:\n  unobserved: %v\n  observed:   %v", base, got)
			}
		})
	}
}

// TestTCFullStallPctMatchesAttribution: the exported tc_full_stall_pct
// is the tc-full-stall share of the cycle attribution, on a contended
// TCache cell where both are nonzero.
func TestTCFullStallPctMatchesAttribution(t *testing.T) {
	r, err := Run(observationCells()["bankshared-16c"])
	if err != nil {
		t.Fatal(err)
	}
	e := r.Export()
	if e.TCFullStallPct == 0 {
		t.Fatal("contended TCache cell reports no tc-full stall")
	}
	if att := e.Attribution["tc-full-stall"]; e.TCFullStallPct != att {
		t.Fatalf("tc_full_stall_pct = %g, cycle_attribution_pct[tc-full-stall] = %g", e.TCFullStallPct, att)
	}
}
