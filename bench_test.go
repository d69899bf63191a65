package pmemaccel

// One benchmark per evaluation artifact: Figures 6-10, Table 1 and the
// §5.2 stall observation, plus an ablation over transaction-cache
// capacity (simulator speed is measured by the benchmark in bench/).
// Figure benches share one grid (built once, outside the timed region)
// and report their series' geomeans through b.ReportMetric, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the paper's headline numbers. The full-resolution tables
// are produced by cmd/paperrepro.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pmemaccel/internal/hwcost"
	"pmemaccel/internal/workload"
)

// benchConfig is the grid cell configuration used by the figure benches:
// smaller than the default run but large enough for steady-state
// behaviour.
func benchConfig(b workload.Benchmark, m Kind) Config {
	cfg := DefaultConfig(b, m)
	cfg.Scale = 128
	cfg.Ops = 3000
	return cfg
}

var (
	gridOnce sync.Once
	gridErr  error
	grid     map[workload.Benchmark]map[Kind]*Result
)

func benchGrid(b *testing.B) map[workload.Benchmark]map[Kind]*Result {
	b.Helper()
	gridOnce.Do(func() {
		grid = make(map[workload.Benchmark]map[Kind]*Result)
		for _, wb := range workload.All {
			grid[wb] = make(map[Kind]*Result)
			for _, m := range []Kind{SP, TCache, Kiln, Optimal} {
				res, err := Run(benchConfig(wb, m))
				if err != nil {
					gridErr = err
					return
				}
				grid[wb][m] = res
			}
		}
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return grid
}

// geomeanNormalized computes the geometric mean across benchmarks of
// metric(mech)/metric(Optimal).
func geomeanNormalized(g map[workload.Benchmark]map[Kind]*Result, m Kind,
	metric func(*Result) float64) float64 {
	prod, n := 1.0, 0
	for _, row := range g {
		base := metric(row[Optimal])
		v := metric(row[m])
		if base > 0 && v > 0 {
			prod *= v / base
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n))
}

func reportFigure(b *testing.B, metric func(*Result) float64) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []Kind{SP, TCache, Kiln} {
			b.ReportMetric(geomeanNormalized(g, m, metric), m.String()+"_vs_optimal")
		}
	}
}

// BenchmarkFig6IPC regenerates Figure 6: normalized IPC
// (paper: SP 0.477, TCache 0.985, Kiln 0.878).
func BenchmarkFig6IPC(b *testing.B) {
	reportFigure(b, (*Result).IPC)
}

// BenchmarkFig7Throughput regenerates Figure 7: normalized transaction
// throughput (paper: SP 0.306, TCache 0.985, Kiln 0.878).
func BenchmarkFig7Throughput(b *testing.B) {
	reportFigure(b, (*Result).Throughput)
}

// BenchmarkFig8LLCMissRate regenerates Figure 8: normalized LLC miss
// rate (paper: Kiln ~1.06 vs TCache/Optimal ~1.0).
func BenchmarkFig8LLCMissRate(b *testing.B) {
	reportFigure(b, func(r *Result) float64 { return r.LLCMissRate })
}

// BenchmarkFig9WriteTraffic regenerates Figure 9: normalized NVM write
// traffic (paper: SP ~2x; TCache above Kiln, both above Optimal).
func BenchmarkFig9WriteTraffic(b *testing.B) {
	reportFigure(b, func(r *Result) float64 { return float64(r.NVMWriteTraffic()) })
}

// BenchmarkFig10LoadLatency regenerates Figure 10: normalized persistent
// load latency (paper: Kiln 2.4x Optimal; TCache close to Optimal).
func BenchmarkFig10LoadLatency(b *testing.B) {
	reportFigure(b, (*Result).AvgPersistentLoadLatency)
}

// BenchmarkTCStallFraction reports the §5.2 observation: the fraction of
// cycles the TCache configuration stalls on a full transaction cache
// (paper: 0.67% on sps, ~0 elsewhere).
func BenchmarkTCStallFraction(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wb := range workload.All {
			r := g[wb][TCache]
			frac := r.TCFullStallFraction()
			b.ReportMetric(frac*100, wb.String()+"_stall_pct")
		}
	}
}

// BenchmarkTable1HardwareOverhead regenerates Table 1's totals from the
// configuration.
func BenchmarkTable1HardwareOverhead(b *testing.B) {
	cfg := Config{}.HardwareCost()
	var t hwcost.Totals
	for i := 0; i < b.N; i++ {
		t = cfg.Summarize()
	}
	b.ReportMetric(float64(t.PerTCLineBits), "tc_line_bits")
	b.ReportMetric(float64(t.PerHierarchyLineBits), "hier_line_bits")
	b.ReportMetric(float64(t.TCTotalBytes), "tc_total_bytes")
	b.ReportMetric(t.TCvsLLCPercent, "tc_vs_llc_pct")
}

// BenchmarkAblationTCSize sweeps the transaction-cache capacity on the
// most write-intensive benchmark (the §3 "flexibly configured" claim).
func BenchmarkAblationTCSize(b *testing.B) {
	for _, tcBytes := range []int{512, 1024, 4096, 16384} {
		tcBytes := tcBytes
		b.Run(byteLabel(tcBytes), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(workload.SPS, TCache)
				cfg.TCBytes = tcBytes
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tput = res.Throughput()
			}
			b.ReportMetric(tput, "tx_per_kcycle")
		})
	}
}

func byteLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
