// Package figures regenerates the paper's evaluation artifacts: one
// function per figure (6–10) plus the §5.2 transaction-cache stall table,
// all computed from a (benchmark x mechanism) grid of runs.
package figures

import (
	"fmt"
	"strings"

	"pmemaccel"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/stats"
	"pmemaccel/internal/sweep"
	"pmemaccel/internal/workload"
)

// Mechs is the presentation order of the paper's bars.
var Mechs = []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln, pmemaccel.Optimal}

// Grid holds one full evaluation sweep.
type Grid struct {
	Benchs  []workload.Benchmark
	Mechs   []pmemaccel.Kind
	Results map[workload.Benchmark]map[pmemaccel.Kind]*pmemaccel.Result
}

// Run executes the grid on a bounded worker pool (workers <= 0 selects
// GOMAXPROCS). configure produces the run configuration for a cell
// (letting callers choose scale and op counts); it is called
// sequentially in grid order before any simulation starts, so it need
// not be safe for concurrent use. Every cell seeds its own RNG from its
// configuration, so the grid is bit-identical for every worker count.
// progress (may be nil) is invoked after each cell, serialized and in
// grid order (bench-major, mechanism-minor). onProgress (may be nil) is
// the live sweep status (see sweep.Run), serialized with progress: the
// feed behind paperrepro's -progress flag.
func Run(benchs []workload.Benchmark, mechs []pmemaccel.Kind,
	configure func(workload.Benchmark, pmemaccel.Kind) pmemaccel.Config,
	progress func(workload.Benchmark, pmemaccel.Kind, *pmemaccel.Result),
	onProgress func(sweep.Progress),
	workers int) (*Grid, error) {

	type cell struct {
		b   workload.Benchmark
		m   pmemaccel.Kind
		cfg pmemaccel.Config
	}
	var cells []cell
	for _, b := range benchs {
		for _, m := range mechs {
			cells = append(cells, cell{b, m, configure(b, m)})
		}
	}

	results, err := sweep.Run(len(cells), workers,
		func(i int) (*pmemaccel.Result, error) {
			c := cells[i]
			res, err := pmemaccel.Run(c.cfg)
			if err != nil {
				return nil, fmt.Errorf("figures: %v/%v: %w", c.b, c.m, err)
			}
			if res.DurableDiffCount > 0 {
				return nil, fmt.Errorf("figures: %v/%v left NVM inconsistent (%d diffs)",
					c.b, c.m, res.DurableDiffCount)
			}
			return res, nil
		},
		func(i int, res *pmemaccel.Result) {
			if progress != nil {
				progress(cells[i].b, cells[i].m, res)
			}
		}, onProgress)
	if err != nil {
		return nil, err
	}

	g := &Grid{
		Benchs:  benchs,
		Mechs:   mechs,
		Results: make(map[workload.Benchmark]map[pmemaccel.Kind]*pmemaccel.Result),
	}
	for i, c := range cells {
		if g.Results[c.b] == nil {
			g.Results[c.b] = make(map[pmemaccel.Kind]*pmemaccel.Result)
		}
		g.Results[c.b][c.m] = results[i]
	}
	return g, nil
}

// series extracts one metric into a stats.Series.
func (g *Grid) series(name string, metric func(*pmemaccel.Result) float64) *stats.Series {
	var bn, mn []string
	for _, b := range g.Benchs {
		bn = append(bn, b.String())
	}
	for _, m := range g.Mechs {
		mn = append(mn, m.String())
	}
	s := stats.NewSeries(name, bn, mn)
	for _, b := range g.Benchs {
		for _, m := range g.Mechs {
			s.Set(b.String(), m.String(), metric(g.Results[b][m]))
		}
	}
	return s
}

// normalizedTo returns the metric normalized to the Optimal baseline, as
// the paper plots every figure.
func (g *Grid) normalizedTo(name string, metric func(*pmemaccel.Result) float64) *stats.Series {
	return g.series(name, metric).Normalized(pmemaccel.Optimal.String())
}

// Fig6 is the normalized IPC figure.
func (g *Grid) Fig6() *stats.Series {
	return g.normalizedTo("Figure 6: Normalized IPC", (*pmemaccel.Result).IPC)
}

// Fig7 is the normalized transaction-throughput figure.
func (g *Grid) Fig7() *stats.Series {
	return g.normalizedTo("Figure 7: Normalized throughput (tx/kcycle)", (*pmemaccel.Result).Throughput)
}

// Fig8 is the normalized LLC miss-rate figure.
func (g *Grid) Fig8() *stats.Series {
	return g.normalizedTo("Figure 8: Normalized LLC miss rate",
		func(r *pmemaccel.Result) float64 { return r.LLCMissRate })
}

// Fig9 is the normalized NVM write-traffic figure.
func (g *Grid) Fig9() *stats.Series {
	return g.normalizedTo("Figure 9: Normalized NVM write traffic",
		func(r *pmemaccel.Result) float64 { return float64(r.NVMWriteTraffic()) })
}

// Fig10 is the normalized persistent-load-latency figure.
func (g *Grid) Fig10() *stats.Series {
	return g.normalizedTo("Figure 10: Normalized persistent load latency",
		(*pmemaccel.Result).AvgPersistentLoadLatency)
}

// Figure returns the numbered figure (6..10).
func (g *Grid) Figure(n int) (*stats.Series, error) {
	switch n {
	case 6:
		return g.Fig6(), nil
	case 7:
		return g.Fig7(), nil
	case 8:
		return g.Fig8(), nil
	case 9:
		return g.Fig9(), nil
	case 10:
		return g.Fig10(), nil
	default:
		return nil, fmt.Errorf("figures: the paper has figures 6..10, not %d", n)
	}
}

// StallTable reports the §5.2 observation: the fraction of execution time
// each TCache run stalled on a full transaction cache (the paper: ~0
// everywhere except 0.67%% on sps). Result.TCFullStallFraction already
// normalizes by cores x Cycles, so the fraction is printed as-is —
// dividing by the core count again (as this table did before) would
// under-report stall time by 4x on the default machine.
func (g *Grid) StallTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transaction-cache full-stall time (TCache runs, %% of cycles)\n")
	for _, bench := range g.Benchs {
		r := g.Results[bench][pmemaccel.TCache]
		if r == nil {
			continue
		}
		frac := r.TCFullStallFraction()
		fmt.Fprintf(&b, "  %-10s %6.3f%%\n", bench, frac*100)
	}
	return b.String()
}

// ContentionSweep runs the contended benchmark (workload.BankShared)
// across machine widths and contention levels for every mechanism — the
// many-core companion to the paper's four-core, core-private figures. It
// returns three row-aligned series (rows "<cores>c/<pct>%"): absolute
// IPC, IPC as a share of the same row's Optimal (the acceptance metric:
// how much of the side-path TC's 98.5%-of-Optimal headline survives
// cross-core collisions), and the abort rate (aborted attempts per
// attempt). Cells run on up to workers goroutines; results are identical
// for every worker count.
func ContentionSweep(cores []int, contentions []float64, mechs []pmemaccel.Kind,
	configure func(workload.Benchmark, pmemaccel.Kind) pmemaccel.Config,
	progress func(string, *pmemaccel.Result),
	workers int) (ipc, ipcShare, abortRate *stats.Series, err error) {

	type cell struct {
		row string
		m   pmemaccel.Kind
		cfg pmemaccel.Config
	}
	var cells []cell
	var rows, cols []string
	for _, n := range cores {
		for _, pct := range contentions {
			row := fmt.Sprintf("%dc/%.0f%%", n, pct*100)
			rows = append(rows, row)
			for _, m := range mechs {
				cfg := configure(workload.BankShared, m)
				cfg.Cores = n
				cfg.ContentionPct = pct
				cells = append(cells, cell{row, m, cfg})
			}
		}
	}
	for _, m := range mechs {
		cols = append(cols, m.String())
	}
	results, err := sweep.Run(len(cells), workers,
		func(i int) (*pmemaccel.Result, error) {
			c := cells[i]
			res, err := pmemaccel.Run(c.cfg)
			if err != nil {
				return nil, fmt.Errorf("figures: contention %s/%v: %w", c.row, c.m, err)
			}
			if res.DurableDiffCount > 0 {
				return nil, fmt.Errorf("figures: contention %s/%v left NVM inconsistent (%d diffs)",
					c.row, c.m, res.DurableDiffCount)
			}
			return res, nil
		},
		func(i int, res *pmemaccel.Result) {
			if progress != nil {
				progress(cells[i].row, res)
			}
		}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	ipc = stats.NewSeries("Contention sweep: IPC (bankshared)", rows, cols)
	abortRate = stats.NewSeries("Contention sweep: abort rate (%)", rows, cols)
	for i, c := range cells {
		ipc.Set(c.row, c.m.String(), results[i].IPC())
		abortRate.Set(c.row, c.m.String(), results[i].AbortRate()*100)
	}
	ipcShare = ipc.Normalized(pmemaccel.Optimal.String())
	ipcShare.Name = "Contention sweep: IPC share of Optimal"
	return ipc, ipcShare, abortRate, nil
}

// MetricsTable renders the full run-wide metrics snapshot of every grid
// cell that carried one (runs configured with Obs.Metrics): counters,
// gauges, and each histogram's count/mean/p50/p90/p99/max row. Cells
// without a snapshot are skipped; the empty string means no cell had
// metrics enabled.
func (g *Grid) MetricsTable() string {
	var b strings.Builder
	for _, bench := range g.Benchs {
		for _, m := range g.Mechs {
			r := g.Results[bench][m]
			if r == nil || r.Metrics == nil {
				continue
			}
			fmt.Fprintf(&b, "%v/%v\n%s\n", bench, m, r.Metrics.Table())
		}
	}
	return b.String()
}

// HistogramSeries extracts one value from a named histogram across the
// grid — e.g. tx_latency_cycles p99 per benchmark and mechanism, the
// tail-latency companion to Figure 6's mean-driven IPC. value selects
// the statistic from the snapshot row; cells without the histogram (or
// without metrics at all) report zero.
func (g *Grid) HistogramSeries(title, name string,
	value func(metrics.HistogramSnapshot) float64) *stats.Series {
	return g.series(title, func(r *pmemaccel.Result) float64 {
		if r.Metrics == nil {
			return 0
		}
		h := r.Metrics.Histogram(name)
		if h == nil {
			return 0
		}
		return value(*h)
	})
}

// TxLatencyP99 is the transaction-latency tail table: p99 cycles from
// commit-request to durable-commit resume, per benchmark and mechanism.
func (g *Grid) TxLatencyP99() *stats.Series {
	return g.HistogramSeries("Transaction latency p99 (cycles)", "tx_latency_cycles",
		func(h metrics.HistogramSnapshot) float64 { return float64(h.P99) })
}

// StageBreakdown renders the flight recorder's per-cell transaction
// waterfall: mean cycles per lifecycle stage (execute, commit-wait,
// tc-drain, wpq-wait, nvm-write), the mean end-to-end latency they sum
// to, and the sampled-transaction count, one row per benchmark x
// mechanism cell. Cells without a flight aggregate (runs configured
// without Obs.TxSample) are skipped; the empty string means no cell
// sampled.
func (g *Grid) StageBreakdown() string {
	cols := append(append([]string{}, obs.TxStageNames[:]...), "e2e", "sampled")
	var rows []string
	var vals [][]float64
	for _, bench := range g.Benchs {
		for _, m := range g.Mechs {
			r := g.Results[bench][m]
			if r == nil || r.TxFlight == nil {
				continue
			}
			a := r.TxFlight
			row := make([]float64, 0, len(cols))
			for i := range obs.TxStageNames {
				row = append(row, a.MeanStage(i))
			}
			row = append(row, a.MeanE2E(), float64(a.Sampled))
			rows = append(rows, fmt.Sprintf("%v/%v", bench, m))
			vals = append(vals, row)
		}
	}
	if len(rows) == 0 {
		return ""
	}
	return stats.Crosstab("Transaction lifecycle stage breakdown (mean cycles per sampled tx)", rows, cols, vals)
}

// Summary renders the headline comparison the paper's abstract quotes:
// each mechanism's geomean share of Optimal performance.
func (g *Grid) Summary() string {
	f6, f7 := g.Fig6(), g.Fig7()
	var b strings.Builder
	fmt.Fprintf(&b, "Geomean share of Optimal performance (paper: TCache 98.5%%, Kiln 87.8%%, SP 47.7%% IPC / 30.6%% throughput)\n")
	for _, m := range g.Mechs {
		if m == pmemaccel.Optimal {
			continue
		}
		fmt.Fprintf(&b, "  %-8s IPC %5.1f%%   throughput %5.1f%%\n",
			m, f6.Geomean(m.String())*100, f7.Geomean(m.String())*100)
	}
	return b.String()
}
