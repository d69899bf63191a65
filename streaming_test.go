package pmemaccel

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pmemaccel/internal/trace"
	"pmemaccel/internal/workload"
)

// stripped zeroes the fields a stop-and-resume may legitimately move:
// Config, and SkippedCycles, because a stop can split a fast-forward into
// skipped and stepped cycles without changing any simulated state.
func stripped(r *Result) *Result {
	r.Config = Config{}
	r.SkippedCycles = 0
	return r
}

// runSplit builds cfg's system, stops it at cycle stop (the crash-check
// path), then finishes it with Run. No component may schedule into the past on the way.
func runSplit(t *testing.T, cfg Config, stop uint64) *Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.RunToCycle(stop) {
		t.Fatalf("workload quiesced before the stop at cycle %d", stop)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("Run after RunToCycle(%d): %v", stop, err)
	}
	if ps := sys.Kernel.PastSchedules(); ps != 0 {
		t.Errorf("%d ScheduleAt calls targeted the past (coerced forward); want zero", ps)
	}
	return stripped(r)
}

// TestStreamingIdenticalAllCells is the byte-identity gate for the crash
// path: on every benchmark x mechanism cell, a system stopped mid-run
// and then finished with Run must produce the same Result as a plain
// Run. The stop is a pure observer, so the machine must not be able to
// tell the two apart.
func TestStreamingIdenticalAllCells(t *testing.T) {
	for _, b := range workload.All {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			b, m := b, m
			t.Run(b.String()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				cfg := smokeConfig(b, m)
				plain, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				stripped(plain)
				split := runSplit(t, cfg, plain.Cycles/2)
				if !reflect.DeepEqual(plain, split) {
					t.Errorf("results diverge plain vs stopped-and-resumed:\n  plain: %v\n  split: %v", plain, split)
					if plain.Cycles != split.Cycles {
						t.Errorf("Cycles: %d vs %d", plain.Cycles, split.Cycles)
					}
					for c := range plain.PerCore {
						if !reflect.DeepEqual(plain.PerCore[c], split.PerCore[c]) {
							t.Errorf("core %d stats diverge:\n  plain: %+v\n  split: %+v",
								c, plain.PerCore[c], split.PerCore[c])
						}
					}
				}
			})
		}
	}
}

// TestOraclePendingPeak pins the oracle's memory on the four benchmark
// cells (seed 1): the most write sets a core ever had pulled but not
// yet durable. The oracle holds only those, so its memory is
// O(transactions in flight), never O(run length).
func TestOraclePendingPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("four full benchmark-cell runs")
	}
	cells := []struct {
		name       string
		bench      workload.Benchmark
		mech       Kind
		cores, ops int
		contention float64
	}{
		{"rbtree-tcache-4c", workload.RBTree, TCache, 4, 3000, 0},
		{"sps-sp-4c", workload.SPS, SP, 4, 9000, 0},
		{"bankshared-tcache-16c", workload.BankShared, TCache, 16, 1000, 0.5},
		{"graph-optimal-4c", workload.Graph, Optimal, 4, 9000, 0},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(c.bench, c.mech)
			cfg.Scale = 128
			cfg.Cores = c.cores
			cfg.Ops = c.ops
			cfg.ContentionPct = c.contention
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			for core := 0; core < c.cores; core++ {
				// Measured: one. A core's generator queues a write set
				// only when the core pulls the transaction's TX_END, and
				// by then the previous transaction is durable on these
				// cells, however far generation ran ahead.
				if got := sys.Oracle.PeakPending(core); got != 1 {
					t.Errorf("core %d: peak of %d pending write sets, want 1", core, got)
				}
				if got := sys.Oracle.Committed(core); got != uint64(c.ops) {
					t.Errorf("core %d: %d durable commits at quiescence, want %d", core, got, c.ops)
				}
			}
		})
	}
}

// TestStreamingCrashCheckMatchesRecovery pins the end-of-run oracle:
// after a full drain, ExpectedDurable (every write set folded) must agree
// with what the mechanism's recovery produces. Optimal is excluded: it makes no
// durability guarantee (recovery is the identity and committed lines may
// still be dirty in the volatile caches).
func TestStreamingCrashCheckMatchesRecovery(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(workload.SPS, m)
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			diffs := CheckDurable(sys.ExpectedDurable(), sys.RecoveredDurable(), 5)
			if len(diffs) != 0 {
				t.Errorf("recovered image diverges from the oracle: %v", diffs)
			}
		})
	}
}

// TestPaperScaleCalibration checks PaperScale's sizing math without
// paying for a paper-scale run: the calibrated op count must put the
// projected instruction window in the right class, and the cycle bound
// must be raised.
func TestPaperScaleCalibration(t *testing.T) {
	cfg := DefaultConfig(workload.SPS, TCache)
	scaled, err := cfg.PaperScale()
	if err != nil {
		t.Fatalf("PaperScale: %v", err)
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

// TestNoGoroutineOutlivesARun: the producer that generates records ahead
// of the cores is started by Run and RunToCycle and joined before they
// return, so the goroutine count is back where it was after a finished
// Run, after an abandoned RunToCycle and after a Run whose stream fails.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	before := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cfg := smokeConfig(workload.RBTree, TCache)
	build := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	res, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	settled("Run")

	if build().RunToCycle(res.Cycles / 3) {
		t.Fatal("the abandoned run finished early")
	}
	settled("an abandoned RunToCycle")

	s := build()
	injected := errors.New("injected")
	checked := 0
	s.Outputs[1].Stream.SetCheck(func(trace.Record) error {
		if checked++; checked == 500 {
			return injected
		}
		return nil
	})
	if _, err := s.Run(); !errors.Is(err, injected) || !strings.Contains(err.Error(), "core 1") {
		t.Fatalf("Run = %v, want core 1's injected stream error", err)
	}
	if got := s.Outputs[1].Stream.Produced(); got != 499 {
		t.Errorf("core 1 pulled %d records before its stream failed, want 499", got)
	}
	settled("a Run whose stream fails")
}
