package recovery

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/workload"
)

// crashConfig is a small, fast configuration for crash sweeps.
func crashConfig(b workload.Benchmark, m pmemaccel.Kind, seed uint64) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(b, m)
	cfg.Seed = seed
	cfg.Cores = 2
	cfg.Scale = 256
	cfg.InitialSize = 600
	cfg.Ops = 250
	return cfg
}

func TestGuaranteedMechanismsSurviveCrashes(t *testing.T) {
	for _, m := range []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln} {
		for _, b := range workload.Extended {
			b, m := b, m
			t.Run(b.String()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				cfg := crashConfig(b, m, 11)
				horizon, err := Horizon(cfg)
				if err != nil {
					t.Fatalf("horizon: %v", err)
				}
				trials, violations, err := Sweep(cfg, 6, horizon, 7)
				if err != nil {
					t.Fatal(err)
				}
				if violations != 0 {
					for _, tr := range trials {
						if !tr.OK() {
							t.Errorf("%v", tr)
							if len(tr.AtomicityDiffs) > 0 {
								t.Errorf("first diff: %+v", tr.AtomicityDiffs[0])
							}
						}
					}
					t.Fatalf("%d/%d crash trials violated persistence", violations, len(trials))
				}
			})
		}
	}
}

func TestOptimalViolatesPersistenceUnderCrash(t *testing.T) {
	// The no-persistence baseline must (with overwhelming probability
	// over many mid-run crash points) leave NVM inconsistent — the
	// motivating failure of §2.
	cfg := crashConfig(workload.SPS, pmemaccel.Optimal, 3)
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crash in the middle third of the run, when traffic is in flight.
	_, violations, err := Sweep(cfg, 6, horizon*2/3, 13)
	if err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("optimal survived every crash; the baseline should demonstrate corruption")
	}
}

func TestCrashAfterCompletionIsConsistent(t *testing.T) {
	// Crashing after full quiescence must always recover cleanly for
	// guaranteed mechanisms.
	cfg := crashConfig(workload.Hashtable, pmemaccel.TCache, 5)
	tr, err := RunTrial(cfg, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.FinishedEarly {
		t.Fatal("run did not quiesce before the crash bound")
	}
	if !tr.OK() {
		t.Fatalf("post-completion crash inconsistent: %v", tr)
	}
}

func TestTrialReportsCommitCounts(t *testing.T) {
	cfg := crashConfig(workload.RBTree, pmemaccel.TCache, 9)
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrial(cfg, horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CommittedPerCore) != cfg.Cores {
		t.Fatalf("committed counts for %d cores, want %d", len(tr.CommittedPerCore), cfg.Cores)
	}
	total := uint64(0)
	for _, c := range tr.CommittedPerCore {
		total += c
	}
	if total == 0 {
		t.Fatal("mid-run crash saw zero committed transactions")
	}
}

// TestTrialCountsDefaultWidthCores: a configuration that leaves Cores at
// 0 (DefaultConfig, as cmd/crashtest builds it) still reports one
// committed count per core of the built machine, not an empty list.
func TestTrialCountsDefaultWidthCores(t *testing.T) {
	cfg := crashConfig(workload.RBTree, pmemaccel.TCache, 3)
	cfg.Cores = 0
	cfg.Ops = 60
	tr, err := RunTrial(cfg, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CommittedPerCore) != pmemaccel.DefaultCores {
		t.Fatalf("committed counts %v, want one per core of the default %d-core machine",
			tr.CommittedPerCore, pmemaccel.DefaultCores)
	}
	for c, n := range tr.CommittedPerCore {
		if n != uint64(cfg.Ops) {
			t.Errorf("core %d: %d committed at quiescence, want %d", c, n, cfg.Ops)
		}
	}
}

func TestRecoveryCostReported(t *testing.T) {
	// Mid-run, the TCache mechanism holds buffered entries, so recovery
	// has work to do; after quiescence it has none.
	cfg := crashConfig(workload.SPS, pmemaccel.TCache, 21)
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := RunTrial(cfg, horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.OK() || mid.FinishedEarly {
		t.Fatalf("mid-run trial: %v (finished early: %v)", mid, mid.FinishedEarly)
	}
	// Whether the TC holds entries at one sampled cycle is chance; over
	// a sweep some crash point must find committed entries to replay.
	trials, violations, err := Sweep(cfg, 8, horizon, 21)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, tr := range trials {
		if tr.Cost.ScannedItems > 0 {
			scanned++
		}
	}
	if violations != 0 || scanned == 0 {
		t.Fatalf("sweep: %d violations, %d of %d crash points with TC entries to scan", violations, scanned, len(trials))
	}
	end, err := RunTrial(cfg, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if end.Cost.ScannedItems != 0 || end.Cost.NVMWrites != 0 {
		t.Fatalf("post-quiescence recovery cost nonzero: %+v", end.Cost)
	}
}

func TestSPRecoveryCostGrowsWithProgress(t *testing.T) {
	// SP's recovery scans the whole durable log, which only grows.
	cfg := crashConfig(workload.SPS, pmemaccel.SP, 22)
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early, err := RunTrial(cfg, horizon/4)
	if err != nil {
		t.Fatal(err)
	}
	late, err := RunTrial(cfg, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if late.Cost.ScannedItems <= early.Cost.ScannedItems {
		t.Fatalf("late scan %d not above early %d", late.Cost.ScannedItems, early.Cost.ScannedItems)
	}
	if late.Cost.EstCycles == 0 {
		t.Fatal("late recovery estimate is zero")
	}
}

func TestBankCrashConservation(t *testing.T) {
	// The money-conservation invariant is the sharpest atomicity probe:
	// any torn transfer changes the total. All guaranteed mechanisms
	// must conserve; Optimal must (almost always) tear.
	for _, m := range []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln} {
		cfg := crashConfig(workload.Bank, m, 41)
		horizon, err := Horizon(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		trials, violations, err := Sweep(cfg, 5, horizon, 19)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if violations != 0 {
			for _, tr := range trials {
				if !tr.OK() {
					t.Errorf("%v: %v", m, tr)
				}
			}
			t.Fatalf("%v destroyed or created money in %d/%d crashes", m, violations, len(trials))
		}
	}
	cfg := crashConfig(workload.Bank, pmemaccel.Optimal, 41)
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, violations, err := Sweep(cfg, 5, horizon*2/3, 23)
	if err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("optimal conserved money in every crash; expected torn transfers")
	}
}

func TestSweepZeroHorizonIsError(t *testing.T) {
	// A zero horizon used to panic inside sim.Uint64n; it must be a
	// descriptive error instead.
	cfg := crashConfig(workload.SPS, pmemaccel.TCache, 61)
	trials, violations, err := Sweep(cfg, 5, 0, 7)
	if err == nil {
		t.Fatal("zero-horizon sweep returned nil error")
	}
	if !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("error %q does not explain the zero horizon", err)
	}
	if len(trials) != 0 || violations != 0 {
		t.Fatalf("zero-horizon sweep returned trials=%d violations=%d", len(trials), violations)
	}
}

// TestSweepNegativeCountIsError: a negative point count used to panic
// in make; it must be a descriptive error, while 0 points stay legal.
func TestSweepNegativeCountIsError(t *testing.T) {
	cfg := crashConfig(workload.SPS, pmemaccel.TCache, 61)
	trials, violations, err := Sweep(cfg, -1, 1000, 7)
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative-count sweep: err = %v, want one asking for a non-negative count", err)
	}
	if len(trials) != 0 || violations != 0 {
		t.Fatalf("negative-count sweep returned trials=%d violations=%d", len(trials), violations)
	}
	if trials, _, err := Sweep(cfg, 0, 1000, 7); err != nil || len(trials) != 0 {
		t.Fatalf("zero-count sweep: %d trials, err = %v; want none and no error", len(trials), err)
	}
}

// TestSweepMatchesIndependentTrials pins the one-pass sweep: crashing
// one system at ascending cycles yields, trial for trial, what a fresh
// system run to each cycle yields.
func TestSweepMatchesIndependentTrials(t *testing.T) {
	optimal := crashConfig(workload.SPS, pmemaccel.Optimal, 71)
	shared := crashConfig(workload.BankShared, pmemaccel.SP, 7)
	shared.Cores = 16
	shared.ContentionPct = 0.5
	for _, cfg := range []pmemaccel.Config{optimal, shared} {
		horizon, err := Horizon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trials, violations, err := Sweep(cfg, 6, horizon, 29)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(29)
		want := 0
		for i, tr := range trials {
			ind, err := RunTrial(cfg, rng.Uint64n(horizon)+1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, ind) {
				t.Errorf("%v/%v trial %d: sweep %v, independent %v", cfg.Benchmark, cfg.Mechanism, i, tr, ind)
			}
			if !ind.OK() {
				want++
			}
		}
		if violations != want {
			t.Errorf("%v/%v: %d violations, independent trials %d", cfg.Benchmark, cfg.Mechanism, violations, want)
		}
	}
}

func TestTrialsAreDeterministic(t *testing.T) {
	cfg := crashConfig(workload.SPS, pmemaccel.TCache, 51)
	a, err := RunTrial(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if a.CrashCycle != b.CrashCycle || len(a.AtomicityDiffs) != len(b.AtomicityDiffs) {
		t.Fatalf("identical trials diverged: %v vs %v", a, b)
	}
	for i := range a.CommittedPerCore {
		if a.CommittedPerCore[i] != b.CommittedPerCore[i] {
			t.Fatalf("committed counts diverged: %v vs %v", a.CommittedPerCore, b.CommittedPerCore)
		}
	}
	if a.Cost != b.Cost {
		t.Fatalf("recovery costs diverged: %+v vs %+v", a.Cost, b.Cost)
	}
}

// TestRunTrialSurfacesStreamError is the regression guard for truncated
// trials: a core whose generator fails before the crash cycle sees an
// exhausted trace, and the trial must report that failure rather than a
// consistent crash. Config cannot shrink a core's persistent heap, so the
// failing generator is the heap-exhaustion setup of the workload
// package's TestStreamErrorSurfaces (an rbtree whose inserts outgrow a
// 16 KB region), chained into core 0's stream through its per-record
// check: every record core 0 pulls advances the failing generator by
// one, and its error becomes core 0's stream error.
func TestRunTrialSurfacesStreamError(t *testing.T) {
	p := workload.DefaultParams(workload.RBTree, 0, 1, 1, 16, 1_000_000)
	p.SearchesPerOp = 0
	p.PersistentRegion = memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 14}
	failing, err := workload.NewStream(workload.RBTree, p)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}

	cfg := crashConfig(workload.RBTree, pmemaccel.TCache, 1)
	s, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	s.Outputs[0].Stream.SetCheck(func(trace.Record) error {
		if _, ok := failing.Stream.Next(); !ok {
			return failing.StreamErr()
		}
		return nil
	})
	tr, err := crash(s, 1<<40)
	if err == nil {
		t.Fatalf("trial on a truncated run reported %v, want the generator's error", tr)
	}
	if !strings.Contains(err.Error(), "core 0") {
		t.Errorf("error %q does not name the failing core", err)
	}
	if failing.StreamErr() == nil {
		t.Fatal("test setup: the chained generator never failed")
	}
}

// TestBankSharedCrashesMidRun crashes the contended workload mid-run, at
// 4 and 16 cores: shared-line ownership releases, TC acks, fallback
// commit records, abort evictions, squashed-store undo and SP's
// global-order replay are all live at the crash point, and recovery must
// match the commit-order oracle.
func TestBankSharedCrashesMidRun(t *testing.T) {
	for _, m := range []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln} {
		for _, cores := range []int{4, 16} {
			for _, seed := range []uint64{1, 7} {
				m, cores, seed := m, cores, seed
				t.Run(fmt.Sprintf("%v/%dc/seed%d", m, cores, seed), func(t *testing.T) {
					t.Parallel()
					cfg := pmemaccel.DefaultConfig(workload.BankShared, m)
					cfg.Seed = seed
					cfg.Cores = cores
					cfg.Scale = 128
					cfg.Ops = 300
					sweepConsistent(t, cfg, 8)
				})
			}
		}
	}
}

// sweepConsistent crashes cfg at n random points before its horizon,
// drawn with cfg.Seed, and fails on any trial whose recovery does not
// match the commit-order oracle.
func sweepConsistent(t *testing.T, cfg pmemaccel.Config, n int) {
	t.Helper()
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatalf("horizon: %v", err)
	}
	trials, violations, err := Sweep(cfg, n, horizon, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if !tr.OK() {
			t.Errorf("%v", tr)
		}
	}
	if violations != 0 {
		t.Fatalf("%d/%d crash trials violated persistence", violations, len(trials))
	}
}

// TestSmallTCCrashesMidRun crashes TCache with a 256-byte (4-entry) TC,
// on sps at 4 cores and on the contended bankshared at 16: most
// transactions overflow into the copy-on-write fall-back, so fall-back
// and abort evictions (EvictTx), fall-back commits waiting on TC drains
// and drain acknowledgments are all live at the crash points.
func TestSmallTCCrashesMidRun(t *testing.T) {
	for _, c := range []struct {
		b     workload.Benchmark
		cores int
	}{{workload.SPS, 4}, {workload.BankShared, 16}} {
		for _, seed := range []uint64{1, 7} {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%v/%dc/seed%d", c.b, c.cores, seed), func(t *testing.T) {
				t.Parallel()
				cfg := pmemaccel.DefaultConfig(c.b, pmemaccel.TCache)
				cfg.Seed = seed
				cfg.Cores = c.cores
				cfg.Scale = 128
				cfg.Ops = 300
				cfg.TCBytes = 256
				sweepConsistent(t, cfg, 8)
			})
		}
	}
}

// TestKilnRetainsEvictedLines crashes rbtree under Kiln at crashtest's
// defaults and Scale 256, where ordinary LLC evictions of committed lines
// are frequent. An evicted line has left the LLC but is not yet in NVM
// until its write-back lands; Kiln must keep that version recoverable.
func TestKilnRetainsEvictedLines(t *testing.T) {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.Kiln)
	cfg.Ops = 800
	cfg.InitialSize = 2000
	cfg.Scale = 256
	cfg.Seed = 1
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials, violations, err := Sweep(cfg, 20, horizon, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if !tr.OK() {
			t.Errorf("%v", tr)
		}
	}
	if violations != 0 {
		t.Fatalf("%d/%d crash trials violated persistence", violations, len(trials))
	}
}

// TestKilnUndoesSquashedStores crashes bankshared under Kiln on 8 cores,
// where conflict aborts are frequent. An aborted attempt's retired stores
// must leave the live image before the next owner of the released lines
// commits: Kiln's LLC installs snapshot the live image, so a squashed
// word left there would reach the NV-LLC inside another core's commit.
func TestKilnUndoesSquashedStores(t *testing.T) {
	cfg := pmemaccel.DefaultConfig(workload.BankShared, pmemaccel.Kiln)
	cfg.Cores = 8
	cfg.Ops = 100
	cfg.InitialSize = 200
	cfg.Scale = 128
	cfg.ContentionPct = 0.5
	cfg.Seed = 1
	horizon, err := Horizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials, violations, err := Sweep(cfg, 8, horizon, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if !tr.OK() {
			t.Errorf("%v", tr)
		}
	}
	if violations != 0 {
		t.Fatalf("%d/%d crash trials violated persistence", violations, len(trials))
	}
}
