package pmemaccel

import (
	"runtime"
	"testing"

	"pmemaccel/internal/workload"
)

// TestRunAllocationCeiling bounds the heap allocations of the Run phase
// (simulation, drain and result collection; NewSystem is excluded) per
// committed transaction. Every completion, on the per-access paths and
// in the mechanisms' commit and write-back paths alike, is an
// allocation-free sim.Event, and memory images grow by slab chunks of
// 4 KiB pages, so what remains is trace generation and transaction
// bookkeeping: about 0.07 to 0.20 allocations per transaction on these
// cells, under a ceiling of 0.64. When every completion was a one-shot
// func() closure, rbtree/TCache allocated 119.7 times per committed
// transaction; while Kiln's write-backs and commit flush and the TC
// fall-back commit still built closures, rbtree/Kiln allocated 8.14
// times and the 256-byte TC cell 2.09 times.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 0.64
	for _, c := range []struct {
		name           string
		b              workload.Benchmark
		m              Kind
		cores, tcBytes int
	}{
		{"rbtree/tcache", workload.RBTree, TCache, 0, 0},
		{"rbtree/kiln", workload.RBTree, Kiln, 0, 0},
		{"btree/kiln", workload.BTree, Kiln, 0, 0},
		{"bankshared/kiln/16c", workload.BankShared, Kiln, 16, 0},
		{"sps/tcache/tc256", workload.SPS, TCache, 0, 256},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := tinyConfig(c.b, c.m)
			cfg.Ops = 600
			if c.cores != 0 {
				cfg.Cores = c.cores
			}
			if c.tcBytes != 0 {
				cfg.TCBytes = c.tcBytes
			}
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
		})
	}
}
