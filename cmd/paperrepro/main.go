// Command paperrepro regenerates the paper's evaluation: Figures 6-10 as
// normalized tables (and optional bar charts), the §5.2 transaction-cache
// stall observation, and Tables 1-3.
//
// Usage:
//
//	paperrepro                 # full grid, all figures
//	paperrepro -fig 9          # one figure
//	paperrepro -table1         # hardware-overhead table only
//	paperrepro -config         # Table 2 machine configuration
//	paperrepro -workloads      # Table 3 workload descriptions
//	paperrepro -stalls         # TC-full stall fractions
//	paperrepro -contention     # cores x contention x mechanism sweep (bankshared)
//	paperrepro -bars -csv ...  # output formats
//
// -cores widens the simulated machine (power of two up to 64) for the
// figure grid and re-prices Table 1's per-core structures. -paper-scale
// sizes every cell to the paper's 1.7 G-instruction window; generation
// streams, so memory stays O(structure) at that length.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmemaccel"
	"pmemaccel/internal/figures"
	"pmemaccel/internal/prof"
	"pmemaccel/internal/sweep"
	"pmemaccel/internal/workload"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "regenerate one figure (6..10); 0 = all")
		table1    = flag.Bool("table1", false, "print Table 1 (hardware overhead) and exit")
		config    = flag.Bool("config", false, "print the Table 2 machine configuration and exit")
		workloads = flag.Bool("workloads", false, "print the Table 3 workload list and exit")
		stalls    = flag.Bool("stalls", false, "print TC-full stall fractions (§5.2)")
		contSweep = flag.Bool("contention", false, "run the cross-core contention sweep (cores x contention x mechanism on bankshared) instead of the figure grid")
		bars      = flag.Bool("bars", false, "render figures as bar charts")
		csv       = flag.Bool("csv", false, "render figures as CSV")
		markdown  = flag.Bool("markdown", false, "render figures as markdown tables (EXPERIMENTS.md format)")
		ops       = flag.Int("ops", 0, "operations per core (0 = default)")
		cores     = flag.Int("cores", 0, "core count, a power of two up to 64 (0 = 4; ignored by -contention, which sweeps widths itself)")
		scale     = flag.Int("scale", 0, "cache scale divisor (0 = default 64; 1 = full Table 2 machine)")
		paperScl  = flag.Bool("paper-scale", false, "size ops to the paper's 1.7G-instruction window per cell (slow)")
		nvmChans  = flag.Int("nvm-channels", 0, "address-interleaved NVM channels (0 = 1)")
		dramChans = flag.Int("dram-channels", 0, "address-interleaved DRAM channels (0 = 1)")
		seed      = flag.Uint64("seed", 1, "random seed")
		jobs      = flag.Int("j", 0, "concurrent grid cells (0 = all cores); output is identical for every -j")
		noFF      = flag.Bool("no-ff", false, "disable component sleep and fast-forward (tick everything every cycle; same results, slower)")
		progress  = flag.Bool("progress", false, "render a live one-line grid status (cells/s, busy workers, ETA) instead of per-cell results")
		metrics   = flag.Bool("metrics", false, "enable the per-run metrics registry and print latency-percentile tables after the figures")
		txSample  = flag.Uint64("tx-sample", 0, "flight-record every Nth transaction per core (1 = all, 0 = off) and print the per-cell stage-breakdown table")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof format) to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	// The "0 selects the default" int flags are guarded with > 0 below, so
	// a negative value would silently run the default grid; reject it.
	for _, f := range []struct {
		name string
		val  int
	}{
		{"ops", *ops}, {"scale", *scale}, {"cores", *cores},
		{"nvm-channels", *nvmChans}, {"dram-channels", *dramChans},
		{"j", *jobs},
	} {
		if f.val < 0 {
			fmt.Fprintf(os.Stderr, "paperrepro: -%s %d is negative; pass a positive value or omit the flag for the default\n", f.name, f.val)
			os.Exit(1)
		}
	}
	if err := pmemaccel.ValidateCLICores(*cores); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro: -cores:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		stop, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			if err := prof.WriteHeap(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
			}
		}()
	}

	if *table1 {
		// The paper's Table 1 costs out the full-scale 4-core machine;
		// -cores re-prices the per-core structures for wider topologies.
		fmt.Print(pmemaccel.Config{Cores: *cores}.HardwareCost().Render())
		return
	}
	if *config {
		printMachineConfig()
		return
	}
	if *workloads {
		fmt.Println("Table 3: Workloads")
		for _, b := range workload.All {
			fmt.Printf("  %-10s %s\n", b, b.Description())
		}
		return
	}

	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(b, m)
		if *ops > 0 {
			cfg.Ops = *ops
		}
		if *scale > 0 {
			cfg.Scale = *scale
		}
		if *cores > 0 {
			cfg.Cores = *cores
		}
		cfg.NVMChannels = *nvmChans
		cfg.DRAMChannels = *dramChans
		cfg.Seed = *seed
		cfg.NoFastForward = *noFF
		cfg.Obs.Metrics = *metrics
		if *txSample > 0 {
			cfg.Obs.Enabled = true
			cfg.Obs.TxSample = *txSample
		}
		if *paperScl {
			scaled, err := cfg.PaperScale()
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
				os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "grid complete in %v\n\n", time.Since(start).Round(time.Second))

	which := []int{6, 7, 8, 9, 10}
	if *fig != 0 {
		which = []int{*fig}
	}
	for _, n := range which {
		s, err := grid.Figure(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			os.Exit(1)
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
	if *metrics {
		fmt.Print(grid.TxLatencyP99().Table())
		fmt.Println()
	}
	if *txSample > 0 {
		fmt.Print(grid.StageBreakdown())
		fmt.Println()
	}
	fmt.Print(grid.Summary())
}

func printMachineConfig() {
	fmt.Println(`Table 2: Machine Configuration (simulated; Scale divides capacities)
  CPU                4 cores, 2 GHz, 4-issue, MLP window 8
  L1 I/D             Private, 32 KB/core, 0.5 ns (1 cy), 4-way
  L2                 Private, 256 KB/core, 4.5 ns (9 cy), 8-way
  L3 (LLC)           Shared, 64 MB, 10 ns (20 cy), 16-way
  Transaction cache  Private, 4 KB/core, fully-assoc CAM FIFO; access not
                     modelled (a TC write costs no cycles)
  Memory controllers 8/64-entry read/write queues; read-first,
                     write drain at 80% full
  NVM (STT-RAM)      32 banks, 65 ns read (130 cy), 76 ns write (152 cy)
  DRAM               DDR3-like, 32 banks`)
}
