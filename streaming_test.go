package pmemaccel

import (
	"reflect"
	"testing"

	"pmemaccel/internal/workload"
)

// runStreaming runs one cell with Config.Streaming set, returning the
// result with Config zeroed for comparison.
func runStreaming(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Streaming = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("streaming Run: %v", err)
	}
	r.Config = Config{}
	return r
}

// TestStreamingIdenticalAllCells is the tentpole acceptance gate: every
// benchmark x mechanism cell must produce a result under streaming
// workload generation that is byte-identical to the materialized path's.
// The generator emits the same record sequence Generate would have
// appended (the workload-level tests pin that), so the machine must not
// be able to tell the modes apart; only Config is zeroed (Streaming is
// the intended difference).
func TestStreamingIdenticalAllCells(t *testing.T) {
	for _, b := range workload.All {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			b, m := b, m
			t.Run(b.String()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				cfg := smokeConfig(b, m)
				mat, err := Run(cfg)
				if err != nil {
					t.Fatalf("materialized Run: %v", err)
				}
				mat.Config = Config{}
				str := runStreaming(t, cfg)
				if !reflect.DeepEqual(mat, str) {
					t.Errorf("results diverge materialized vs streaming:\n  materialized: %v\n  streaming:    %v", mat, str)
					if mat.Cycles != str.Cycles {
						t.Errorf("Cycles: %d vs %d", mat.Cycles, str.Cycles)
					}
					for c := range mat.PerCore {
						if !reflect.DeepEqual(mat.PerCore[c], str.PerCore[c]) {
							t.Errorf("core %d stats diverge:\n  materialized: %+v\n  streaming:    %+v",
								c, mat.PerCore[c], str.PerCore[c])
						}
					}
				}
			})
		}
	}
}

// TestStreamingCrashCheckMatchesRecovery pins the end-of-run oracle in
// streaming mode: with no per-transaction history, ExpectedDurable folds
// the incremental final image, which after a full drain must agree with
// what the mechanism's recovery produces. Optimal is excluded: it makes
// no durability guarantee (recovery is the identity and committed lines
// may still be dirty in the volatile caches), in either generation mode.
func TestStreamingCrashCheckMatchesRecovery(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(workload.SPS, m)
			cfg.Streaming = true
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			diffs := CheckDurable(sys.ExpectedDurable(), sys.RecoveredDurable(), 5)
			if len(diffs) != 0 {
				t.Errorf("recovered image diverges from streaming expectation: %v", diffs)
			}
		})
	}
}

// TestPaperScaleCalibration checks PaperScale's sizing math without
// paying for a paper-scale run: the calibrated op count must put the
// projected instruction window in the right class, streaming must be
// forced on, and the cycle bound must be raised.
func TestPaperScaleCalibration(t *testing.T) {
	cfg := DefaultConfig(workload.SPS, TCache)
	scaled, err := cfg.PaperScale()
	if err != nil {
		t.Fatalf("PaperScale: %v", err)
	}
	if !scaled.Streaming {
		t.Error("PaperScale did not enable streaming")
	}
	if scaled.MaxCycles < 2_000_000_001 {
		t.Errorf("MaxCycles = %d, want the paper-scale bound", scaled.MaxCycles)
	}
	p := workload.DefaultParams(workload.SPS, 0, scaled.Cores, scaled.Seed, scaled.InitialSize, workload.CalibrationOps)
	perOp, err := workload.InstructionsPerOp(workload.SPS, p)
	if err != nil {
		t.Fatal(err)
	}
	projected := perOp * float64(scaled.Ops) * float64(scaled.Cores)
	if projected < 0.9*PaperInstructionTarget || projected > 1.1*PaperInstructionTarget {
		t.Errorf("projected window = %.0f instructions (ops=%d, %.1f instr/op), want within 10%% of %d",
			projected, scaled.Ops, perOp, PaperInstructionTarget)
	}
}
