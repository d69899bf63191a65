package pmemaccel

// Concurrency smoke tests for the parallel sweep engine
// (internal/sweep): Run must be safe to call from many goroutines at
// once — every simulation seeds its own RNG from its configuration,
// owns its observer, and shares no mutable package state. `go test
// -race` drives this file.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
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

// TestBuildWorkersKeepResults builds and runs the same systems with one
// build worker (GOMAXPROCS 1) and with several, and asserts the Result
// JSON is byte-identical: each core builds from its own parameters alone
// and its output lands at its index, so the worker count and the order
// cores finish building in change nothing.
func TestBuildWorkersKeepResults(t *testing.T) {
	for _, c := range []struct {
		name  string
		b     workload.Benchmark
		m     Kind
		cores int
	}{
		{"rbtree/tcache-4c", workload.RBTree, TCache, 4},
		{"bankshared/tcache-16c", workload.BankShared, TCache, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smokeConfig(c.b, c.m)
			cfg.Cores = c.cores
			var out [2][]byte
			for i, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
				prev := runtime.GOMAXPROCS(procs)
				res, err := Run(cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				if out[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("Result JSON differs between one build worker and several:\n%s\n%s", out[0], out[1])
			}
		})
	}
}

// TestBuildErrorNamesLowestCore builds a configuration every core's
// workload rejects: whichever worker fails first, the error names core 0.
func TestBuildErrorNamesLowestCore(t *testing.T) {
	cfg := smokeConfig(workload.BankShared, TCache)
	cfg.Cores = 16
	cfg.SharedAccounts = 1 // bankshared needs at least 2
	for rep := 0; rep < 4; rep++ {
		_, err := NewSystem(cfg)
		if err == nil || !strings.Contains(err.Error(), "core 0: ") || !strings.Contains(err.Error(), "shared accounts") {
			t.Fatalf("NewSystem = %v, want core 0's shared-account error", err)
		}
	}
}
