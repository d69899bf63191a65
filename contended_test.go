package pmemaccel

// Tests for the contended cross-core workload (workload.BankShared):
// serialization correctness (the recovered NVM image must match the
// commit-order oracle exactly, under genuine line conflicts and aborts)
// and stop-and-resume invariance (a RunToCycle stop before Run must not
// change the Result).

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pmemaccel/internal/workload"
)

// contendedConfig is a small but genuinely contended cell: 4 cores
// hammering the 64-word shared array with 80% shared transfers.
func contendedConfig(m Kind) Config {
	cfg := smokeConfig(workload.BankShared, m)
	cfg.Cores = 4
	cfg.ContentionPct = 0.8
	return cfg
}

// TestContendedConsistencyAllMechanisms runs the contended cell on every
// mechanism and pins the core contract: zero durable diffs (recovery
// reproduces the commit-order oracle), every transaction committed,
// real aborts on the arbitrated mechanisms, and none on SP (deferred in-place stores have no conflict
// window — correctness comes from global-order log replay instead).
func TestContendedConsistencyAllMechanisms(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			r, err := Run(contendedConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			// Optimal reports -1 (no recovery semantics to check); every
			// real mechanism must recover the commit-order oracle exactly.
			if r.DurableDiffCount > 0 {
				t.Fatalf("%d durable diffs; recovered image must match the commit-order oracle", r.DurableDiffCount)
			}
			// Every aborted transaction re-ran and committed: each of
			// the cell's ops is one transaction.
			if got, want := r.TotalTransactions(), uint64(r.Config.Cores*r.Config.Ops); got != want {
				t.Fatalf("%d transactions committed, want %d (cores x ops)", got, want)
			}
			aborts := r.TotalTxAborts()
			if m == SP {
				if aborts != 0 || r.Arb.Acquires != 0 {
					t.Fatalf("SP does not arbitrate, got %d aborts, %d acquires", aborts, r.Arb.Acquires)
				}
				return
			}
			if aborts == 0 {
				t.Fatal("80% contention produced zero aborts; conflict detection is not firing")
			}
			if r.TotalWastedInstructions() == 0 {
				t.Fatal("aborts without wasted instructions; abort accounting is broken")
			}
			if r.Arb.Acquires == 0 || r.Arb.Conflicts == 0 {
				t.Fatalf("arbiter stats empty under contention: %+v", r.Arb)
			}
			// Acquires counts every decided request (grants + denials);
			// at quiescence each grant must have been matched by exactly
			// one release, or line ownership leaked past the run.
			if grants := r.Arb.Acquires - r.Arb.Conflicts; r.Arb.Releases != grants {
				t.Fatalf("%d grants (%d acquires - %d conflicts) but %d releases; line ownership leaked",
					grants, r.Arb.Acquires, r.Arb.Conflicts, r.Arb.Releases)
			}
		})
	}
}

// runChecked runs one cell through NewSystem (not the Run convenience
// wrapper) so the test can interrogate the kernel after the run: no
// component may ever schedule into the past, which only the kernel can
// attest.
func runChecked(t *testing.T, cfg Config) *Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ps := sys.Kernel.PastSchedules(); ps != 0 {
		t.Errorf("%d ScheduleAt calls targeted the past (coerced forward); want zero", ps)
	}
	return r
}

// TestContendedKernelAndStreamingInvariance pins that the contended path
// keeps the simulator's strongest property: a system stopped mid-run
// (the crash-check path) and then finished with Run produces a Result
// byte-identical to a plain Run, commit-order oracle included.
func TestContendedKernelAndStreamingInvariance(t *testing.T) {
	for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := contendedConfig(m)
			base := stripped(runChecked(t, cfg))
			r := runSplit(t, cfg, base.Cycles/2)
			if !reflect.DeepEqual(base, r) {
				t.Errorf("stopped-and-resumed run diverges from a plain run:\n  plain: %v\n  split: %v", base, r)
			}
		})
	}
}

// TestContendedCoreWidths runs the contended cell across machine widths
// (1 core = degenerate, no cross-core conflicts possible; 4/16/64 = the
// sweep's grid points) and checks width-parameterized invariants: per-core
// surfaces sized to the width, a consistent image at every width, and
// the attribution table rendering one row per core plus the aggregate.
func TestContendedCoreWidths(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		t.Run(strconv.Itoa(n)+"cores", func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(workload.BankShared, TCache)
			cfg.Cores = n
			cfg.Ops = 60
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.PerCore) != n || len(r.TC) != n {
				t.Fatalf("per-core surfaces sized %d/%d, want %d", len(r.PerCore), len(r.TC), n)
			}
			if r.DurableDiffCount != 0 {
				t.Fatalf("%d durable diffs at %d cores", r.DurableDiffCount, n)
			}
			if n == 1 && r.TotalTxAborts() != 0 {
				t.Fatalf("single core aborted %d times; it can only conflict with itself", r.TotalTxAborts())
			}
			tbl := r.AttributionTable()
			for _, want := range []string{"core0", "all", "abort-stall"} {
				if !strings.Contains(tbl, want) {
					t.Fatalf("attribution table at %d cores missing %q:\n%s", n, want, tbl)
				}
			}
			if last := "core" + strconv.Itoa(n-1); !strings.Contains(tbl, last) {
				t.Fatalf("attribution table at %d cores missing %q", n, last)
			}
			if over := "core" + strconv.Itoa(n); strings.Contains(tbl, over) {
				t.Fatalf("attribution table at %d cores has phantom row %q", n, over)
			}
		})
	}
}
