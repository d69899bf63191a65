package pmemaccel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pmemaccel/internal/workload"
)

// TestAttributionSumsToCycles checks the per-core cycle-attribution
// invariant on every mechanism: with Idle filled at collect time the
// buckets sum exactly to the performance window, and the busy portion
// matches the core's own retirement cycle to within one cycle (a core
// may retire its last instruction via an event callback between ticks).
func TestAttributionSumsToCycles(t *testing.T) {
	for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(tinyConfig(workload.RBTree, m))
			if err != nil {
				t.Fatal(err)
			}
			for c, st := range res.PerCore {
				if got := st.Breakdown.Total(); got != res.Cycles {
					t.Errorf("core %d: breakdown total = %d, want Cycles = %d (%+v)",
						c, got, res.Cycles, st.Breakdown)
				}
				busy := st.Breakdown.Busy()
				var diff uint64
				if busy > st.DoneAt {
					diff = busy - st.DoneAt
				} else {
					diff = st.DoneAt - busy
				}
				if diff > 1 {
					t.Errorf("core %d: busy = %d, done at %d (diff %d > 1)",
						c, busy, st.DoneAt, diff)
				}
			}
		})
	}
}

// TestObsTraceAndMetrics runs a two-core TCache workload with the
// observability layer on and checks both export formats end to end: the
// Chrome trace parses as JSON and carries transaction spans and TC drain
// events; the metrics CSV is non-empty and has TC-occupancy and
// queue-depth columns.
func TestObsTraceAndMetrics(t *testing.T) {
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.SampleEvery = 500
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Probe() == nil {
		t.Fatal("Obs.Enabled set but System.Obs.Probe() is nil")
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := sys.Obs.Probe().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		count[ev.Name]++
		if ev.Ph == "X" && ev.Dur == 0 {
			t.Fatalf("complete event %q with zero duration", ev.Name)
		}
	}
	if count["tx"] == 0 {
		t.Error("trace has no transaction spans")
	}
	if count["tc-drain"] == 0 {
		t.Error("trace has no TC drain spans")
	}
	if count["tc-commit"] == 0 {
		t.Error("trace has no TC commit instants")
	}

	var csv bytes.Buffer
	if err := sys.Obs.Probe().WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics CSV has %d lines, want header + samples", len(lines))
	}
	header := lines[0]
	for _, col := range []string{"cycle", "tc0_occupancy", "tc1_occupancy",
		"llc_demand_queue", "nvm0_write_queue", "dram0_read_queue"} {
		if !strings.Contains(header, col) {
			t.Errorf("metrics CSV header missing %q (header: %s)", col, header)
		}
	}
	cols := strings.Count(header, ",") + 1
	for i, line := range lines[1:] {
		if got := strings.Count(line, ",") + 1; got != cols {
			t.Fatalf("row %d has %d columns, header has %d", i+1, got, cols)
		}
	}
}

// TestObsDisabledByDefault checks the zero-overhead contract's API side:
// without Obs.Enabled the probe stays nil and runs behave identically.
func TestObsDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(tinyConfig(workload.RBTree, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Probe() != nil {
		t.Fatal("probe allocated without Obs.Enabled")
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestObsDeterminismUnchanged checks that enabling observability does
// not perturb the simulation: cycle counts and instruction counts match
// a probe-free run exactly.
func TestObsDeterminismUnchanged(t *testing.T) {
	base, err := Run(tinyConfig(workload.Hashtable, TCache))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(workload.Hashtable, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.SampleEvery = 250
	obsRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != obsRes.Cycles {
		t.Errorf("cycles changed with obs on: %d vs %d", base.Cycles, obsRes.Cycles)
	}
	if base.TotalInstructions() != obsRes.TotalInstructions() {
		t.Errorf("instructions changed with obs on: %d vs %d",
			base.TotalInstructions(), obsRes.TotalInstructions())
	}
}

// TestSamplerUnderFastForward checks the sampler's interaction with the
// kernel's fast-forward: the self-rescheduling sample event
// keeps the period exact (skips land between events, never across
// them), so sample cycles are strictly monotonic on an exact
// SampleEvery cadence, never past the kernel clock (the run's drain
// tail may extend past the performance window), and identical with
// fast-forward disabled. Periods 1500 and 5000 exceed the kernel's
// calendar-wheel span, so each sample event waits in the far heap while
// the machine's own completions fill the wheel buckets.
func TestSamplerUnderFastForward(t *testing.T) {
	for _, every := range []uint64{500, 1500, 5000} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			cfg := tinyConfig(workload.RBTree, TCache)
			cfg.Obs.Enabled = true
			cfg.Obs.SampleEvery = every

			run := func(noFF bool) ([]uint64, uint64) {
				cfg.NoFastForward = noFF
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				if noFF == false && sys.Kernel.Skipped() == 0 {
					t.Log("note: fast-forward never engaged on this run")
				}
				return sys.Obs.Probe().SampleCycles(), sys.Kernel.Now()
			}

			ff, ffNow := run(false)
			if len(ff) < 2 {
				t.Fatalf("%d samples recorded at every=%d, want at least 2", len(ff), every)
			}
			prev := uint64(0)
			for i, c := range ff {
				if c <= prev && i > 0 {
					t.Fatalf("sample cycles not strictly increasing: %d then %d", prev, c)
				}
				if c%every != 0 {
					t.Errorf("sample %d at cycle %d, not a multiple of %d", i, c, every)
				}
				if c > ffNow {
					t.Errorf("sample %d at cycle %d, beyond the kernel clock %d", i, c, ffNow)
				}
				prev = c
			}
			noff, noffNow := run(true)
			if ffNow != noffNow {
				t.Fatalf("kernel clock diverges with fast-forward: %d vs %d", ffNow, noffNow)
			}
			if !reflect.DeepEqual(ff, noff) {
				t.Errorf("sample cycles diverge with fast-forward:\n  on:  %v\n  off: %v", ff, noff)
			}
		})
	}
}

// runObsTrace runs one cell to completion and returns the result plus
// the exported Chrome trace bytes — the strongest equivalence artifact:
// it serializes every recorded event with its exact cycle timestamps.
func runObsTrace(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem(NoFastForward=%v): %v", cfg.NoFastForward, err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("Run(NoFastForward=%v): %v", cfg.NoFastForward, err)
	}
	var buf bytes.Buffer
	if err := sys.Obs.Probe().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace(NoFastForward=%v): %v", cfg.NoFastForward, err)
	}
	return r, buf.Bytes()
}

// TestParallelKernelObsTraceIdentical pins the byte-identity of the
// observability record across kernel stepping modes (the name dates from
// the former parallel kernel, which this test also compared): with the
// event trace and the flight recorder both on, a fast-forwarding run
// must reproduce the every-cycle run's result, apart from the skip audit
// counter, and its exported trace byte for byte — every span, stage
// waterfall and flow event at the same cycle on the same track.
func TestParallelKernelObsTraceIdentical(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(workload.SPS, m)
			cfg.Obs.Enabled = true
			cfg.Obs.TxSample = 1
			ff, ffTrace := runObsTrace(t, cfg)
			cfg.NoFastForward = true
			noff, noffTrace := runObsTrace(t, cfg)
			if noff.SkippedCycles != 0 {
				t.Errorf("-no-ff run skipped %d cycles, want 0", noff.SkippedCycles)
			}
			if ff.SkippedCycles == 0 {
				t.Fatal("fast-forward never engaged; the comparison would be vacuous")
			}
			ff.Config, noff.Config = Config{}, Config{}
			ff.SkippedCycles = 0
			if !reflect.DeepEqual(ff, noff) {
				t.Errorf("results diverge ff vs -no-ff with obs on:\n  ff:    %v\n  no-ff: %v", ff, noff)
				if !reflect.DeepEqual(ff.TxFlight, noff.TxFlight) {
					t.Errorf("flight aggregates diverge:\n  ff:    %+v\n  no-ff: %+v", ff.TxFlight, noff.TxFlight)
				}
			}
			if !bytes.Equal(ffTrace, noffTrace) {
				t.Errorf("exported traces diverge (ff %d bytes, -no-ff %d bytes)", len(ffTrace), len(noffTrace))
			}
		})
	}
}

// TestParallelKernelOpenSpanFlushMidRun stops a run mid-flight and
// flushes its open spans (TC drain bursts, WPQ drain windows): two
// fresh systems stopped at the same cycle must flush the same spans and
// export the same trace bytes, and each open span must be flushed
// exactly once per collection — flushers do not mutate state, so a
// second collection records the same count again, never more.
func TestParallelKernelOpenSpanFlushMidRun(t *testing.T) {
	cfg := smokeConfig(workload.SPS, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.TxSample = 1

	snapshot := func(stop uint64) (*System, []byte, uint64) {
		t.Helper()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.RunToCycle(stop) {
			t.Fatalf("stop@%d: workload finished before the stop cycle", stop)
		}
		sys.Obs.FlushOpenSpans(sys.Kernel.Now())
		var buf bytes.Buffer
		if err := sys.Obs.Probe().WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return sys, buf.Bytes(), sys.Obs.Probe().OpenSpansFlushed()
	}

	// Find a stop cycle where a span is open, so the flush path is
	// actually exercised.
	for _, stop := range []uint64{500, 1000, 1500, 2000, 2500, 3000} {
		first, firstTrace, firstFlushed := snapshot(stop)
		if firstFlushed == 0 {
			continue
		}
		_, againTrace, againFlushed := snapshot(stop)
		if againFlushed != firstFlushed {
			t.Fatalf("stop@%d: second system flushed %d open spans, first flushed %d", stop, againFlushed, firstFlushed)
		}
		if !bytes.Equal(firstTrace, againTrace) {
			t.Fatalf("stop@%d: mid-run traces diverge (%d bytes vs %d bytes)",
				stop, len(firstTrace), len(againTrace))
		}
		before := first.Obs.Probe().Recorded()
		first.Obs.FlushOpenSpans(first.Kernel.Now())
		if got := first.Obs.Probe().Recorded() - before; got != firstFlushed {
			t.Fatalf("stop@%d: re-flush recorded %d spans, want %d (one per open span)",
				stop, got, firstFlushed)
		}
		return
	}
	t.Fatal("no candidate stop cycle had an open span; pick different cycles")
}

// TestSamplerEveryLongerThanRun: a SampleEvery beyond the run length
// must not perturb the run (the pending sample event is simply never
// reached) and must export a header-only CSV.
func TestSamplerEveryLongerThanRun(t *testing.T) {
	base, err := Run(tinyConfig(workload.RBTree, TCache))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.SampleEvery = base.Cycles * 10
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != base.Cycles {
		t.Errorf("cycles changed with an unreachable sampler: %d vs %d", res.Cycles, base.Cycles)
	}
	if n := sys.Obs.Probe().SampleCount(); n != 0 {
		t.Errorf("SampleCount = %d with every=%d on a %d-cycle run, want 0",
			n, cfg.Obs.SampleEvery, res.Cycles)
	}
	var csv bytes.Buffer
	if err := sys.Obs.Probe().WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(csv.String()), "\n"); len(lines) != 1 {
		t.Errorf("CSV has %d lines, want header only", len(lines))
	}
}

// TestAttributionTableRenders sanity-checks the human-readable table.
func TestAttributionTableRenders(t *testing.T) {
	res, err := Run(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.AttributionTable()
	for _, want := range []string{"core0", "core1", "all", "compute", "idle"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("attribution table missing %q:\n%s", want, tbl)
		}
	}
}
