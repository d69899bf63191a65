package pmemaccel

// Skip-equivalence suite for component sleep and fast-forward
// (internal/sim): every workload x mechanism cell must produce an
// identical Result with fast-forward on and off. The sleep contract
// (DESIGN.md §10) promises byte-identical simulation output; these tests
// enforce it field by field, including the per-core cycle attribution
// that a sleeping core charges in bulk.

import (
	"fmt"
	"reflect"
	"testing"

	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/workload"
)

// runPair runs one configuration with fast-forward on and off and
// returns both results with their Configs zeroed (the NoFastForward flag
// is the one intended difference; everything downstream of it must
// agree).
func runPair(t *testing.T, cfg Config) (ff, noff *Result) {
	t.Helper()
	cfg.NoFastForward = false
	ff, err := Run(cfg)
	if err != nil {
		t.Fatalf("fast-forward on: %v", err)
	}
	cfg.NoFastForward = true
	noff, err = Run(cfg)
	if err != nil {
		t.Fatalf("fast-forward off: %v", err)
	}
	ff.Config = Config{}
	noff.Config = Config{}
	// SkippedCycles is the one counter that legitimately differs (it is
	// the audit trail for the flag under test): assert the expected
	// shape, then zero it so DeepEqual covers everything else.
	if noff.SkippedCycles != 0 {
		t.Errorf("NoFastForward run reported %d skipped cycles, want 0", noff.SkippedCycles)
	}
	ff.SkippedCycles = 0
	noff.SkippedCycles = 0
	return ff, noff
}

// equivalenceCells is every workload x mechanism cell of the paper's
// suite, plus a contended 16-core machine and Kiln on two NVM channels.
func equivalenceCells() map[string]Config {
	cells := map[string]Config{}
	for _, b := range workload.All {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			cells[b.String()+"/"+m.String()] = smokeConfig(b, m)
		}
	}
	wide := smokeConfig(workload.BankShared, TCache)
	wide.Cores = 16
	cells["bankshared/tcache/16c"] = wide
	kiln2 := smokeConfig(workload.RBTree, Kiln)
	kiln2.NVMChannels = 2
	cells["rbtree/kiln/2nvm"] = kiln2
	return cells
}

func TestFastForwardResultsIdenticalAllCells(t *testing.T) {
	for name, cfg := range equivalenceCells() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ff, noff := runPair(t, cfg)
			if !reflect.DeepEqual(ff, noff) {
				t.Errorf("results diverge with fast-forward on vs off:\n  on:  %v\n  off: %v", ff, noff)
				// Narrow the divergence for the failure message.
				if ff.Cycles != noff.Cycles {
					t.Errorf("Cycles: %d vs %d", ff.Cycles, noff.Cycles)
				}
				for c := range ff.PerCore {
					if !reflect.DeepEqual(ff.PerCore[c], noff.PerCore[c]) {
						t.Errorf("core %d stats diverge:\n  on:  %+v\n  off: %+v",
							c, ff.PerCore[c], noff.PerCore[c])
					}
				}
			}
		})
	}
}

// TestFastForwardMidRunStateIdentical stops the same machine with
// fast-forward on and off at a ladder of cycles and compares the clock,
// every core's counters and every transaction cache's counters at each
// stop. A core's slept cycles, and the full rejects of a store parked on
// its TC, are charged lazily, so a stop inside a sleep catches any that
// were never settled.
func TestFastForwardMidRunStateIdentical(t *testing.T) {
	for _, name := range []string{"rbtree/tcache", "sps/sp", "graph/optimal", "btree/kiln", "bankshared/tcache/16c"} {
		cfg := equivalenceCells()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var sys [2]*System
			for i, noFF := range []bool{false, true} {
				c := cfg
				c.NoFastForward = noFF
				s, err := NewSystem(c)
				if err != nil {
					t.Fatal(err)
				}
				sys[i] = s
			}
			ff, ref := sys[0], sys[1]
			for stop := uint64(1); ; stop = stop*3 + 7 {
				doneFF, doneRef := ff.RunToCycle(stop), ref.RunToCycle(stop)
				if ff.Kernel.Now() != ref.Kernel.Now() || doneFF != doneRef {
					t.Fatalf("stop %d: clock %d (done %v) with fast-forward, %d (done %v) without",
						stop, ff.Kernel.Now(), doneFF, ref.Kernel.Now(), doneRef)
				}
				for c := range ff.Cores {
					if a, b := ff.Cores[c].Stats(), ref.Cores[c].Stats(); !reflect.DeepEqual(a, b) {
						t.Fatalf("stop %d: core %d stats diverge:\n  on:  %+v\n  off: %+v", stop, c, a, b)
					}
				}
				if tp, ok := ff.Mech.(mechanism.TCIntrospector); ok {
					a, b := tp.TCStatsAll(), ref.Mech.(mechanism.TCIntrospector).TCStatsAll()
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("stop %d: TC stats diverge:\n  on:  %+v\n  off: %+v", stop, a, b)
					}
				}
				if doneFF {
					break
				}
			}
			if ff.Kernel.Skipped() == 0 {
				t.Fatal("fast-forward never engaged; the comparison is vacuous")
			}
		})
	}
}

// TestAttributionClosesUnderFastForward re-asserts the cycle-attribution
// invariant (every cycle of the performance window lands in exactly one
// bucket) on the fast-forward path, where the cycles a core sleeps
// through are charged in bulk instead of accrued tick by tick.
func TestAttributionClosesUnderFastForward(t *testing.T) {
	for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(smokeConfig(workload.RBTree, m))
			if err != nil {
				t.Fatal(err)
			}
			for c, st := range res.PerCore {
				if got := st.Breakdown.Total(); got != res.Cycles {
					t.Errorf("core %d: breakdown total %d != cycles %d", c, got, res.Cycles)
				}
			}
		})
	}
}

// TestFastForwardActuallySkips guards against the suite passing
// vacuously: on a workload dominated by NVM latency the kernel must skip
// a nonzero number of cycles, or fast-forward is not engaging at all.
func TestFastForwardActuallySkips(t *testing.T) {
	s, err := NewSystem(smokeConfig(workload.RBTree, SP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Skipped() == 0 {
		t.Fatal("fast-forward skipped 0 cycles on an NVM-latency-bound run; quiescence is never detected")
	}
}

// TestNoFastForwardDisablesSkipping checks the escape hatch: with
// NoFastForward set the kernel must step every cycle.
func TestNoFastForwardDisablesSkipping(t *testing.T) {
	cfg := smokeConfig(workload.RBTree, SP)
	cfg.NoFastForward = true
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.Kernel.Skipped(); n != 0 {
		t.Fatalf("NoFastForward run skipped %d cycles, want 0", n)
	}
}

// TestSteppedCyclesPinned pins the run length and the cycles the kernel
// skipped on the cells whose cores spend most of their time in a held
// wait, together with the kernel's own work: the Steps it executed and
// the events it fired. On the two 16-core graph and bankshared/tcache
// cells the cores wait at TX_END for their own accesses to drain: a
// waiting core sleeps but holds the kernel's clock, so every cycle of
// the wait counts as stepped. On the SP cells the cores wait in pcommit
// for the NVM write queues to drain, and SP holds the clock for each of
// them. Dropping a hold moves SkippedCycles (and the stepped-cycle rate
// the benchmark reports), and must re-record these values on purpose.
// The 2-channel SP cell checks that the drain is the sum over every NVM
// channel. The Kiln cells pin the commit flush and its write-back wait,
// and the 256-byte TC cell pins the copy-on-write fall-back commit,
// whose wait holds the clock while the TC drains. steps and fired move
// with the kernel's work alone: a change that keeps every Result but
// steps or fires less shows here.
func TestSteppedCyclesPinned(t *testing.T) {
	for _, c := range []struct {
		name                     string
		b                        workload.Benchmark
		m                        Kind
		cores, channels, tcBytes int
		cycles, skipped          uint64
		steps, fired             uint64
	}{
		{"graph/optimal/16c", workload.Graph, Optimal, 16, 0, 0, 43452, 3310, 26859, 42306},
		{"bankshared/tcache/16c", workload.BankShared, TCache, 16, 0, 0, 238664, 109657, 43871, 44845},
		{"sps/sp/4c", workload.SPS, SP, 4, 0, 0, 81202, 51032, 5800, 8165},
		{"bankshared/sp/16c", workload.BankShared, SP, 16, 0, 0, 335956, 38434, 38737, 62221},
		{"sps/sp/8c/2nvm", workload.SPS, SP, 8, 2, 0, 99057, 32240, 10502, 16289},
		{"bankshared/kiln/16c", workload.BankShared, Kiln, 16, 0, 0, 231264, 2321, 69206, 44727},
		{"rbtree/kiln/4c", workload.RBTree, Kiln, 4, 0, 0, 80906, 35503, 39377, 30983},
		{"sps/tcache/4c/tc256", workload.SPS, TCache, 4, 0, 256, 31316, 649, 3108, 3684},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(c.b, c.m)
			cfg.Cores = c.cores
			cfg.NVMChannels = c.channels
			if c.tcBytes != 0 {
				cfg.TCBytes = c.tcBytes
			}
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != c.cycles || res.SkippedCycles != c.skipped {
				t.Errorf("cycles %d, skipped %d; want %d, %d", res.Cycles, res.SkippedCycles, c.cycles, c.skipped)
			}
			if steps, fired := s.Kernel.Steps(), s.Kernel.Fired(); steps != c.steps || fired != c.fired {
				t.Errorf("steps %d, fired %d; want %d, %d", steps, fired, c.steps, c.fired)
			}
		})
	}
}

// A finished core never runs again, which the run's finish predicate
// relies on to resume its scan at the first core not yet seen finished.
// Over a contended 16-core run, checked after every Step the kernel
// executes (state does not change over the cycles it jumps): no core
// leaves Finished, every core before the predicate's index is finished
// and the one at it is not.
func TestFinishedCoresStayFinished(t *testing.T) {
	cfg := smokeConfig(workload.BankShared, TCache)
	cfg.Cores = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.producer.Start()()
	was := make([]bool, len(s.Cores))
	finishes := 0
	var fail string
	_, ok := s.Kernel.RunUntil(func() bool {
		for i, c := range s.Cores {
			fin := c.Finished()
			if was[i] && !fin && fail == "" {
				fail = fmt.Sprintf("cycle %d: core %d finished, then unfinished", s.Kernel.Now(), i)
			}
			if fin && !was[i] {
				finishes++
			}
			was[i] = fin
		}
		done := s.quiesced()
		for i := 0; i < s.finished && fail == ""; i++ {
			if !was[i] {
				fail = fmt.Sprintf("cycle %d: index %d passed unfinished core %d", s.Kernel.Now(), s.finished, i)
			}
		}
		if s.finished < len(s.Cores) && was[s.finished] && fail == "" {
			fail = fmt.Sprintf("cycle %d: index %d stopped at a finished core", s.Kernel.Now(), s.finished)
		}
		return done || fail != ""
	}, s.Config.MaxCycles)
	if fail != "" {
		t.Fatal(fail)
	}
	if !ok || finishes != len(s.Cores) {
		t.Fatalf("run stopped (quiesced %v) with %d of %d cores seen finishing", ok, finishes, len(s.Cores))
	}
}
