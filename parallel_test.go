package pmemaccel

// Concurrency smoke tests for the parallel sweep engine
// (internal/sweep): Run must be safe to call from many goroutines at
// once — every simulation seeds its own RNG from its configuration,
// owns its observer, and shares no mutable package state. `go test
// -race` drives this file.

import (
	"sync"
	"testing"

	"pmemaccel/internal/workload"
)

func smokeConfig(b workload.Benchmark, m Kind) Config {
	cfg := DefaultConfig(b, m)
	cfg.Cores = 2
	cfg.Scale = 256
	cfg.InitialSize = 300
	cfg.Ops = 100
	return cfg
}

// TestConcurrentRunsAreIndependent runs every mechanism on two
// benchmarks concurrently, twice each, and asserts both copies of every
// cell agree — any cross-run shared state would either trip the race
// detector or diverge the duplicate results.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	type cell struct {
		b workload.Benchmark
		m Kind
	}
	var cells []cell
	for _, b := range []workload.Benchmark{workload.SPS, workload.RBTree} {
		for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
			cells = append(cells, cell{b, m})
		}
	}

	const copies = 2
	results := make([][]*Result, copies)
	var wg sync.WaitGroup
	for rep := 0; rep < copies; rep++ {
		results[rep] = make([]*Result, len(cells))
		for i, c := range cells {
			wg.Add(1)
			go func(rep, i int, c cell) {
				defer wg.Done()
				res, err := Run(smokeConfig(c.b, c.m))
				if err != nil {
					t.Errorf("%v/%v: %v", c.b, c.m, err)
					return
				}
				results[rep][i] = res
			}(rep, i, c)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, c := range cells {
		a, b := results[0][i], results[1][i]
		if a.Cycles != b.Cycles || a.IPC() != b.IPC() ||
			a.NVMWriteTraffic() != b.NVMWriteTraffic() ||
			a.LLCMissRate != b.LLCMissRate {
			t.Errorf("%v/%v: concurrent duplicate runs diverged: %v vs %v", c.b, c.m, a, b)
		}
	}
}
