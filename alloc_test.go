package pmemaccel

import (
	"runtime"
	"testing"

	"pmemaccel/internal/workload"
)

// TestRunAllocationCeiling bounds the heap allocations of the Run phase
// (simulation, drain and result collection; NewSystem is excluded) per
// committed transaction on a small rbtree/TCache cell. Completions on the
// per-access paths are allocation-free sim.Events, so what remains is
// trace generation and transaction bookkeeping: about 0.32 allocations
// per transaction, and the ceiling is twice that. When every completion
// was a one-shot func() closure, the same cell allocated 119.7 times per
// committed transaction.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 0.64
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.Ops = 600
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := s.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tx := r.TotalTransactions()
	if tx == 0 {
		t.Fatal("no committed transactions")
	}
	perTx := float64(after.Mallocs-before.Mallocs) / float64(tx)
	t.Logf("%d mallocs over %d committed transactions: %.2f per transaction", after.Mallocs-before.Mallocs, tx, perTx)
	if perTx > ceiling {
		t.Errorf("Run allocated %.2f times per committed transaction, ceiling %.2f", perTx, ceiling)
	}
}
