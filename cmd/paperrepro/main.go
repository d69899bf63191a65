// Command paperrepro regenerates the paper's evaluation: Figures 6-10 as
// normalized tables (and optional bar charts), the §5.2 transaction-cache
// stall observation, and Tables 1-3.
//
// Usage:
//
//	paperrepro                 # full grid, all figures
//	paperrepro -fig 9          # one figure
//	paperrepro -table1         # hardware-overhead table only
//	paperrepro -config         # Table 2 for the machine the flags select
//	paperrepro -workloads      # Table 3 workload descriptions
//	paperrepro -stalls         # TC-full stall fractions
//	paperrepro -contention     # cores x contention x mechanism sweep (bankshared)
//	paperrepro -bars -csv ...  # output formats
//
// The machine and workload flags are pmemsim's (internal/cliflags), less
// -bench and -mech, which the grid picks; -contention is this command's
// own sweep switch. -cores widens the simulated machine for the figure
// grid (the contention sweep picks its own widths) and re-prices Table
// 1's per-core structures. -paper-scale sizes every cell to the paper's
// 1.7 G-instruction window; generation streams, so memory stays
// O(structure) at that length.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmemaccel"
	"pmemaccel/internal/cliflags"
	"pmemaccel/internal/figures"
	"pmemaccel/internal/prof"
	"pmemaccel/internal/sweep"
	"pmemaccel/internal/workload"
)

func main() {
	base := pmemaccel.DefaultConfig(workload.Graph, pmemaccel.Optimal)
	bound := cliflags.Bind(flag.CommandLine, &base,
		cliflags.Ops|cliflags.Initial|cliflags.Seed|cliflags.Machine|cliflags.Metrics|cliflags.TxSample|cliflags.NoFF|cliflags.PaperScale)
	profile := prof.Flags(flag.CommandLine)
	var (
		fig       = flag.Int("fig", 0, "regenerate one figure (6..10); 0 = all")
		table1    = flag.Bool("table1", false, "print Table 1 (hardware overhead) and exit")
		config    = flag.Bool("config", false, "print Table 2 for the machine the flags select and exit")
		workloads = flag.Bool("workloads", false, "print the Table 3 workload list and exit")
		stalls    = flag.Bool("stalls", false, "print TC-full stall fractions (§5.2)")
		contSweep = flag.Bool("contention", false, "run the cross-core contention sweep (cores x contention x mechanism on bankshared) instead of the figure grid")
		bars      = flag.Bool("bars", false, "render figures as bar charts")
		csv       = flag.Bool("csv", false, "render figures as CSV")
		markdown  = flag.Bool("markdown", false, "render figures as markdown tables (EXPERIMENTS.md format)")
		jobs      = flag.Int("j", 0, "concurrent grid cells (0 = all cores); output is identical for every -j")
		progress  = flag.Bool("progress", false, "render a live one-line grid status (cells/s, busy workers, ETA) instead of per-cell results")
	)
	flag.Parse()
	if *jobs < 0 {
		fatal(fmt.Errorf("-j %d is negative; pass 0 for every core or a positive count", *jobs))
	}
	stop, err := profile()
	if err != nil {
		fatal(err)
	}
	defer stop()

	if *table1 {
		// The paper's Table 1 costs out the full-scale 4-core machine;
		// -cores re-prices the per-core structures for wider topologies.
		fmt.Print(pmemaccel.Config{Cores: base.Cores}.HardwareCost().Render())
		return
	}
	if *config {
		fmt.Print(base.MachineTable())
		return
	}
	if *workloads {
		fmt.Println("Table 3: Workloads")
		for _, b := range workload.All {
			fmt.Printf("  %-10s %s\n", b, b.Description())
		}
		return
	}

	// -tx-sample turns the observer on, as it does in pmemsim.
	base.Obs.Enabled = base.Obs.TxSample > 0
	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := base
		cfg.Benchmark, cfg.Mechanism = b, m
		if bound.PaperScale {
			scaled, err := cfg.PaperScale()
			if err != nil {
				fatal(err)
			}
			cfg = scaled
		}
		return cfg
	}

	if *contSweep {
		sweepCores := []int{4, 16, 64}
		sweepPcts := []float64{0.1, 0.5, 0.9}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %dx%dx%d contention sweep on %d workers...\n",
			len(sweepCores), len(sweepPcts), len(figures.Mechs), sweep.Workers(*jobs))
		var onCell func(string, *pmemaccel.Result)
		if !*progress {
			onCell = func(row string, r *pmemaccel.Result) {
				fmt.Fprintf(os.Stderr, "  [%s] %v\n", row, r)
			}
		}
		ipc, share, aborts, err := figures.ContentionSweep(
			sweepCores, sweepPcts, figures.Mechs, configure, onCell, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep complete in %v\n\n", time.Since(start).Round(time.Second))
		for _, s := range []interface {
			Table() string
			Markdown() string
			CSV() string
		}{ipc, share, aborts} {
			switch {
			case *markdown:
				fmt.Print(s.Markdown())
			case *csv:
				fmt.Print(s.CSV())
			default:
				fmt.Print(s.Table())
			}
			fmt.Println()
		}
		return
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "running %d x %d grid on %d workers...\n",
		len(workload.All), len(figures.Mechs), sweep.Workers(*jobs))
	// -progress replaces the per-cell result lines with a single
	// in-place status line; the two share stderr and would clobber each
	// other.
	perCell := func(b workload.Benchmark, m pmemaccel.Kind, r *pmemaccel.Result) {
		fmt.Fprintf(os.Stderr, "  %v\n", r)
	}
	var onProgress func(sweep.Progress)
	if *progress {
		perCell = nil
		onProgress = sweep.StderrProgress(os.Stderr, "grid")
	}
	grid, err := figures.Run(workload.All, figures.Mechs, configure,
		perCell, onProgress, *jobs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "grid complete in %v\n\n", time.Since(start).Round(time.Second))

	which := []int{6, 7, 8, 9, 10}
	if *fig != 0 {
		which = []int{*fig}
	}
	for _, n := range which {
		s, err := grid.Figure(n)
		if err != nil {
			fatal(err)
		}
		switch {
		case *markdown:
			fmt.Print(s.Markdown())
		case *csv:
			fmt.Println(s.Name)
			fmt.Print(s.CSV())
		case *bars:
			fmt.Print(s.Bars(40))
		default:
			fmt.Print(s.Table())
		}
		fmt.Println()
	}
	if *stalls || *fig == 0 {
		fmt.Print(grid.StallTable())
		fmt.Println()
	}
	if base.Obs.Metrics {
		fmt.Print(grid.TxLatencyP99().Table())
		fmt.Println()
	}
	if base.Obs.TxSample > 0 {
		fmt.Print(grid.StageBreakdown())
		fmt.Println()
	}
	fmt.Print(grid.Summary())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}
