package pmemaccel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pmemaccel/internal/obs"
	"pmemaccel/internal/workload"
)

// TestTxFlightStageSumInvariant is the recorder's core contract on
// every mechanism: with full sampling, every transaction yields a
// flight whose stage cycles sum exactly to its end-to-end latency, no
// flight stays open past collection, and every flight gets exactly one
// critical-path verdict.
func TestTxFlightStageSumInvariant(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig(workload.SPS, m)
			cfg.Obs.Enabled = true
			cfg.Obs.TxSample = 1
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := res.TxFlight
			if a == nil {
				t.Fatal("TxSample set but Result.TxFlight is nil")
			}
			if a.Sampled != res.TotalTransactions() {
				t.Errorf("sampled %d flights, committed %d transactions", a.Sampled, res.TotalTransactions())
			}
			if a.Open != 0 {
				t.Errorf("%d flights still open after a run to quiescence", a.Open)
			}
			var stageSum, critSum uint64
			for _, s := range a.StageCycles {
				stageSum += s
			}
			for _, c := range a.CritCount {
				critSum += c
			}
			if stageSum != a.E2ECycles {
				t.Errorf("stage cycles sum to %d, end-to-end total is %d (must be exact)", stageSum, a.E2ECycles)
			}
			if critSum != a.Sampled {
				t.Errorf("critical-path verdicts %d, sampled flights %d", critSum, a.Sampled)
			}
			if a.Sampled > 0 && a.E2ECycles == 0 {
				t.Error("sampled flights report zero total latency")
			}
			// Only the TCache mechanism issues tracked drain writes; the
			// others' flights must end at commit with empty memory stages.
			if m != TCache && (a.StageCycles[3] != 0 || a.StageCycles[4] != 0) {
				t.Errorf("%v has memory-side stage cycles %v without a TC", m, a.StageCycles)
			}
			if m == TCache && a.StageCycles[4] == 0 {
				t.Error("tcache run recorded no nvm-write stage cycles")
			}
		})
	}
}

// TestTxFlightSampleEveryN pins sampling determinism: per-core tx ids
// count 1..N, so every=4 samples exactly floor(N/4) flights per core,
// computable from the per-core transaction counts alone.
func TestTxFlightSampleEveryN(t *testing.T) {
	cfg := tinyConfig(workload.Hashtable, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.TxSample = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, st := range res.PerCore {
		want += st.Transactions / 4
	}
	if res.TxFlight == nil || res.TxFlight.Sampled != want {
		t.Fatalf("TxSample=4 sampled %+v, want %d flights", res.TxFlight, want)
	}
}

// TestTxFlightResultsUnchanged: the flight recorder observes, never
// perturbs — every simulation-result field matches a run without it.
func TestTxFlightResultsUnchanged(t *testing.T) {
	base, err := Run(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(workload.SPS, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.TxSample = 1
	fl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only the observability record itself may differ.
	base.Config, fl.Config = Config{}, Config{}
	base.TxFlight, fl.TxFlight = nil, nil
	base.ObsEventsRecorded, fl.ObsEventsRecorded = 0, 0
	base.ObsEventsDropped, fl.ObsEventsDropped = 0, 0
	base.ObsOpenSpansFlushed, fl.ObsOpenSpansFlushed = 0, 0
	if !reflect.DeepEqual(base, fl) {
		t.Errorf("flight recording changed simulation results:\n  off: %v\n  on:  %v", base, fl)
	}
}

// TestTxFlightTraceRoundTrip is the in-process version of the CI smoke
// gate: run one cell with full sampling, export the Chrome trace, read
// it back, and require well-formed flow chains and zero drops of any
// kind.
func TestTxFlightTraceRoundTrip(t *testing.T) {
	cfg := tinyConfig(workload.SPS, TCache)
	cfg.Obs.Enabled = true
	cfg.Obs.TxSample = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Obs.Probe().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := obs.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateFlows(data); err != nil {
		t.Fatalf("flow events malformed: %v", err)
	}
	starts, stages := 0, 0
	for _, e := range data.Events {
		if e.Ph == "s" {
			starts++
		}
		if strings.HasPrefix(e.Name, "stage:") {
			stages++
		}
	}
	if starts == 0 || stages == 0 {
		t.Fatalf("trace carries %d flow starts and %d stage spans, want both > 0", starts, stages)
	}
	for k, v := range data.OtherData {
		if strings.HasPrefix(k, "dropped_") && v != "0" {
			t.Errorf("ring dropped events: %s=%s", k, v)
		}
	}
	for k, n := range sys.Obs.Probe().DroppedByKind() {
		if n != 0 {
			t.Errorf("probe dropped %d %v events", n, obs.Kind(k))
		}
	}
	if res.TxFlight == nil || res.TxFlight.Sampled == 0 {
		t.Fatal("round-trip run sampled nothing")
	}
}

// TestTxFlightOffByDefault: without TxSample the recorder stays nil end
// to end — no aggregate, no stage spans in the trace.
func TestTxFlightOffByDefault(t *testing.T) {
	cfg := tinyConfig(workload.SPS, TCache)
	cfg.Obs.Enabled = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Flight() != nil {
		t.Fatal("flight recorder allocated without Obs.TxSample")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxFlight != nil {
		t.Fatal("Result.TxFlight set without Obs.TxSample")
	}
	if n := sys.Obs.Probe().CountKind(obs.KTxStage); n != 0 {
		t.Fatalf("trace carries %d stage spans with sampling off", n)
	}
}
