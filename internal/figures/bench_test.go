package figures

// BenchmarkGrid records the parallel sweep engine's speedup on a small
// (2 benchmark x 4 mechanism) grid:
//
//	go test -bench=Grid -benchtime=1x ./internal/figures
//
// The cells are fully independent simulations, so j=GOMAXPROCS should
// approach linear speedup over j=1 on a multicore host (on a single-core
// host the two run at the same speed). Both produce bit-identical grids;
// TestParallelGridIsDeterministic pins that.

import (
	"fmt"
	"runtime"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

func benchGrid(b *testing.B, workers int) {
	b.Helper()
	configure := func(wb workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(wb, m)
		cfg.Cores = 2
		cfg.Scale = 128
		cfg.InitialSize = 500
		cfg.Ops = 1000
		return cfg
	}
	benchs := []workload.Benchmark{workload.SPS, workload.RBTree}
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchs, Mechs, configure, nil, nil, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSequential(b *testing.B) { benchGrid(b, 1) }

func BenchmarkGridParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	benchGrid(b, 0)
}

func BenchmarkGridWorkers(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) { benchGrid(b, j) })
	}
}
