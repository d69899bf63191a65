// Command pmemsim runs one (benchmark, mechanism) simulation and prints
// the measured metrics.
//
// Usage:
//
//	pmemsim -bench rbtree -mech tcache [-ops 12000] [-scale 64] \
//	        [-cores 4] [-seed 1] [-tc 4096] [-paper] [-v] \
//	        [-paper-scale] \
//	        [-trace-out trace.json] [-metrics-out metrics.csv] \
//	        [-sample-every 1000] [-tx-sample N]
//
// Workload generation always streams (O(1) memory in the op count);
// -paper-scale calibrates the op count to the paper's 1.7 G-instruction
// evaluation window.
//
// -trace-out writes a Chrome trace_event JSON (open in
// chrome://tracing or https://ui.perfetto.dev); -metrics-out writes a
// time-series CSV sampled every -sample-every cycles. Either flag turns
// the observability layer on, as does -tx-sample N, which additionally
// flight-records every Nth transaction per core: each sampled
// transaction's lifecycle is broken into an exact stage waterfall
// (execute, commit-wait, tc-drain, wpq-wait, nvm-write), printed as an
// aggregate and exported into the trace as stage spans stitched by
// flow events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pmemaccel"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/prof"
	"pmemaccel/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "rbtree", "benchmark: graph, rbtree, sps, btree, hashtable, bank, bankshared")
		mechName  = flag.String("mech", "tcache", "mechanism: sp, tcache, kiln, optimal")
		ops       = flag.Int("ops", 0, "operations per core (0 = default)")
		initial   = flag.Int("initial", 0, "prepopulated elements per core (0 = auto-size to the LLC)")
		scale     = flag.Int("scale", 0, "cache scale divisor, power of two (0 = default)")
		cores     = flag.Int("cores", 0, "core count, a power of two up to 64 (0 = 4)")
		seed      = flag.Uint64("seed", 1, "random seed")
		tcBytes   = flag.Int("tc", 0, "transaction cache bytes per core (0 = 4096)")

		nvmChans   = flag.Int("nvm-channels", 0, "address-interleaved NVM channels (0 = 1)")
		dramChans  = flag.Int("dram-channels", 0, "address-interleaved DRAM channels (0 = 1)")
		interleave = flag.Int("interleave", 0, "channel interleave granularity in bytes, power of two (0 = 4096)")
		paper      = flag.Bool("paper", false, "use the full Table 2 machine (Scale 1; slow)")
		contention = flag.Float64("contention", 0, "shared-op fraction for -bench bankshared, in (0,1] (0 = workload default 0.5)")
		sharedAcct = flag.Int("shared-accounts", 0, "shared array length in words for -bench bankshared (0 = 64)")
		paperScale = flag.Bool("paper-scale", false, "size ops to the paper's 1.7G-instruction window (slow)")
		verbose    = flag.Bool("v", false, "print per-core and subsystem detail")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")

		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON to this file (enables observability)")
		metricsOut  = flag.String("metrics-out", "", "write a sampled time-series CSV to this file (enables observability)")
		sampleEvery = flag.Uint64("sample-every", 1000, "sampling period in cycles for -metrics-out")
		metrics     = flag.Bool("metrics", false, "enable the run-wide metrics registry and print its percentile table")
		txSample    = flag.Uint64("tx-sample", 0, "flight-record every Nth transaction per core (1 = all, 0 = off; enables observability)")
		noFF        = flag.Bool("no-ff", false, "disable component sleep and fast-forward (tick everything every cycle; same results, slower)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof format) to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	// The "0 selects the default" int flags are guarded with > 0 below, so
	// a negative value would silently run the default configuration;
	// reject them explicitly. (-tx-sample and -sample-every are unsigned:
	// the flag package itself rejects negatives at parse time.)
	for _, f := range []struct {
		name string
		val  int
	}{
		{"ops", *ops}, {"initial", *initial}, {"scale", *scale},
		{"cores", *cores}, {"tc", *tcBytes},
		{"nvm-channels", *nvmChans}, {"dram-channels", *dramChans},
		{"interleave", *interleave},
		{"shared-accounts", *sharedAcct},
	} {
		if f.val < 0 {
			fatal(fmt.Errorf("-%s %d is negative; pass a positive value or omit the flag for the default", f.name, f.val))
		}
	}
	if err := checkCoresFlag(*cores); err != nil {
		fatal(err)
	}
	if err := checkSampleEveryFlag(*metricsOut, *sampleEvery); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		stop, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			if err := prof.WriteHeap(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "pmemsim:", err)
			}
		}()
	}

	b, err := workload.ParseBenchmark(*benchName)
	if err != nil {
		fatal(err)
	}
	m, err := mechanism.ParseKind(*mechName)
	if err != nil {
		fatal(err)
	}
	cfg := pmemaccel.DefaultConfig(b, m)
	if *paper {
		cfg = pmemaccel.PaperConfig(b, m)
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *initial > 0 {
		cfg.InitialSize = *initial
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *tcBytes > 0 {
		cfg.TCBytes = *tcBytes
	}
	cfg.NVMChannels = *nvmChans
	cfg.DRAMChannels = *dramChans
	cfg.ChannelInterleaveBytes = *interleave
	cfg.ContentionPct = *contention
	cfg.SharedAccounts = *sharedAcct
	cfg.Seed = *seed
	cfg.NoFastForward = *noFF
	if *traceOut != "" || *metricsOut != "" || *txSample > 0 {
		cfg.Obs.Enabled = true
		if *metricsOut != "" {
			cfg.Obs.SampleEvery = *sampleEvery
		}
	}
	cfg.Obs.Metrics = *metrics
	cfg.Obs.TxSample = *txSample
	// Validate here, before the (possibly long) run, so a bad flag
	// combination fails with the specific complaint instead of deep in
	// construction.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *paperScale {
		cfg, err = cfg.PaperScale()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pmemsim: paper scale: %d ops/core, cycle bound %d\n",
			cfg.Ops, cfg.MaxCycles)
	}

	start := time.Now()
	sys, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	probe := sys.Obs.Probe()
	if *traceOut != "" {
		if err := writeFile(*traceOut, probe.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pmemsim: wrote %s (%d events, %d dropped)\n",
			*traceOut, probe.Recorded(), probe.Dropped())
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, probe.WriteMetricsCSV); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pmemsim: wrote %s (%d samples)\n",
			*metricsOut, probe.SampleCount())
	}
	if *asJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Println(res)
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if res.Metrics != nil {
		fmt.Printf("\n%s", res.Metrics.Table())
	}
	if a := res.TxFlight; a != nil {
		fmt.Printf("\ntx flight: %d sampled, %d fallback, %d open; mean e2e %.1f cy\n",
			a.Sampled, a.Fallbacks, a.Open, a.MeanE2E())
		for i, name := range obs.TxStageNames {
			fmt.Printf("  %-12s %9.1f cy   critical in %d tx\n", name, a.MeanStage(i), a.CritCount[i])
		}
	}

	if *verbose {
		fmt.Printf("\nL1 miss %.2f%%  L2 miss %.2f%%  LLC miss %.2f%%\n",
			res.L1MissRate*100, res.L2MissRate*100, res.LLCMissRate*100)
		fmt.Printf("NVM : %+v\n", res.NVM)
		fmt.Printf("DRAM: %+v\n", res.DRAM)
		fmt.Printf("hier: %+v\n", sys.Hier.Stats())
		for c, st := range res.PerCore {
			bd := st.Breakdown
			fmt.Printf("core %d: inst=%d loads=%d stores=%d tx=%d stalls{load=%d sbuf=%d tc-full=%d fence=%d commit=%d abort=%d}\n",
				c, st.Instructions, st.Loads, st.Stores, st.Transactions,
				bd.LoadStall, bd.StoreBufStall, bd.TCFullStall, bd.FenceStall, bd.CommitWait, bd.AbortStall)
		}
		for c, tc := range res.TC {
			fmt.Printf("tc %d: %+v\n", c, tc)
		}
		fmt.Printf("tc-full stall fraction: %.4f%%\n", res.TCFullStallFraction()*100)
		fmt.Printf("\n%s", res.AttributionTable())
	}
}

// checkCoresFlag applies the CLI core-count policy (power of two ≤ 64).
func checkCoresFlag(n int) error {
	if err := pmemaccel.ValidateCLICores(n); err != nil {
		return fmt.Errorf("-cores: %w", err)
	}
	return nil
}

// checkSampleEveryFlag rejects -sample-every 0 with -metrics-out: a zero
// period disables the sampler, so the run would write a header-only CSV.
func checkSampleEveryFlag(metricsOut string, every uint64) error {
	if metricsOut != "" && every == 0 {
		return fmt.Errorf("-sample-every 0 takes no samples for -metrics-out %s; pass a period of at least 1 cycle", metricsOut)
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmemsim:", err)
	os.Exit(1)
}
