package pmemaccel

import (
	"encoding/json"
	"strings"
	"testing"

	"pmemaccel/internal/workload"
)

// TestMetricsRegistryEndToEnd runs a TCache workload with the metrics
// registry on and cross-checks the snapshot against independently
// collected stats: every histogram's exact count/sum must agree with
// the counter the components already keep, so the registry cannot
// silently miss observations at any probe point.
func TestMetricsRegistryEndToEnd(t *testing.T) {
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.Obs.Metrics = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Metrics() == nil {
		t.Fatal("Obs.Metrics set but System.Obs.Metrics() is nil")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Obs.Metrics set but Result.Metrics is nil")
	}
	snap := res.Metrics

	// Every committed transaction contributes exactly one latency and
	// one commit-wait observation.
	txs := res.TotalTransactions()
	for _, name := range []string{"tx_latency_cycles", "commit_wait_cycles"} {
		h := snap.Histogram(name)
		if h == nil {
			t.Fatalf("snapshot missing histogram %q", name)
		}
		if h.Count != txs {
			t.Errorf("%s count = %d, want %d (one per transaction)", name, h.Count, txs)
		}
	}
	if h := snap.Histogram("tx_latency_cycles"); h != nil && h.P99 < h.P50 {
		t.Errorf("tx latency p99 %d < p50 %d", h.P99, h.P50)
	}

	// The TC drains every committed store toward NVM in bursts; entries
	// across all bursts must sum to the issued-write total.
	var issued uint64
	for _, tc := range res.TC {
		issued += tc.Issued
	}
	if h := snap.Histogram("tc_drain_burst_entries"); h == nil {
		t.Error("snapshot missing tc_drain_burst_entries")
	} else if h.Sum != issued {
		t.Errorf("tc_drain_burst_entries sum = %d, want issued = %d", h.Sum, issued)
	}

	// Side-probe hit latency: one observation per side-path hit.
	if h := snap.Histogram("side_probe_hit_latency_cycles"); h == nil {
		t.Error("snapshot missing side_probe_hit_latency_cycles")
	} else if h.Count != res.Hier.SidePathHits {
		t.Errorf("side_probe_hit_latency_cycles count = %d, want SidePathHits = %d",
			h.Count, res.Hier.SidePathHits)
	}

	// Per-line wear distribution: one observation per touched line,
	// summing to the NVM write total; max = hottest line.
	if h := snap.Histogram("nvm_line_writes"); h == nil {
		t.Error("snapshot missing nvm_line_writes")
	} else {
		if h.Count != uint64(res.NVMLinesTouched) {
			t.Errorf("nvm_line_writes count = %d, want lines touched = %d",
				h.Count, res.NVMLinesTouched)
		}
		if h.Max != res.NVMWearMax {
			t.Errorf("nvm_line_writes max = %d, want wear max = %d", h.Max, res.NVMWearMax)
		}
	}

	// WPQ drain windows on the (1x1 topology) NVM channel.
	if h := snap.Histogram("wpq_drain_cycles_nvm"); h == nil {
		t.Error("snapshot missing wpq_drain_cycles_nvm")
	} else if h.Count != res.NVM.DrainEntries {
		t.Errorf("wpq_drain_cycles_nvm count = %d, want drain entries = %d",
			h.Count, res.NVM.DrainEntries)
	}

	// Mirrored counters agree with the stats they mirror.
	if got := snap.Counter("nvm_writes"); got == nil || got.Value != res.NVM.Writes {
		t.Errorf("nvm_writes counter = %v, want %d", got, res.NVM.Writes)
	}
	if got := snap.Counter("transactions"); got == nil || got.Value != txs {
		t.Errorf("transactions counter = %v, want %d", got, txs)
	}

	// The snapshot serializes into the export and renders as a table.
	b, err := json.Marshal(res.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"metrics"`) {
		t.Error("export JSON missing metrics block")
	}
	tbl := snap.Table()
	for _, want := range []string{"tx_latency_cycles", "p99", "nvm_writes"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("metrics table missing %q:\n%s", want, tbl)
		}
	}
}

// TestMetricsDeterminismUnchanged checks the zero-perturbation
// contract: enabling the registry changes no simulated outcome — cycle
// counts, instruction counts and NVM traffic match a metrics-free run
// exactly, and the JSON export differs only by the metrics/obs fields.
func TestMetricsDeterminismUnchanged(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			base, err := Run(tinyConfig(workload.Hashtable, m))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig(workload.Hashtable, m)
			cfg.Obs.Metrics = true
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base.Cycles != got.Cycles {
				t.Errorf("cycles changed with metrics on: %d vs %d", base.Cycles, got.Cycles)
			}
			if base.TotalInstructions() != got.TotalInstructions() {
				t.Errorf("instructions changed with metrics on: %d vs %d",
					base.TotalInstructions(), got.TotalInstructions())
			}
			if base.NVM.Writes != got.NVM.Writes {
				t.Errorf("NVM writes changed with metrics on: %d vs %d",
					base.NVM.Writes, got.NVM.Writes)
			}
		})
	}
}

// TestMetricsDisabledByDefault checks the API side of the disabled
// path: no registry is allocated and the result carries no snapshot.
func TestMetricsDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Metrics() != nil {
		t.Fatal("registry allocated without Obs.Metrics")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("Result.Metrics set without Obs.Metrics")
	}
	if b, err := json.Marshal(res.Export()); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(b), `"metrics"`) {
		t.Error("export JSON carries a metrics block with metrics off")
	}
}

// TestObsRingAccounting checks the trace-ring accounting surfaced in
// the Result: with a deliberately tiny ring the run must report drops,
// and recorded == len(retained) + dropped.
func TestObsRingAccounting(t *testing.T) {
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.TraceCapacity = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ObsEventsRecorded == 0 {
		t.Fatal("obs enabled but no events recorded")
	}
	if res.ObsEventsDropped == 0 {
		t.Errorf("64-entry ring over %d events reported zero drops", res.ObsEventsRecorded)
	}
	retained := uint64(len(sys.Obs.Probe().Events()))
	if res.ObsEventsRecorded != retained+res.ObsEventsDropped {
		t.Errorf("recorded %d != retained %d + dropped %d",
			res.ObsEventsRecorded, retained, res.ObsEventsDropped)
	}
}
