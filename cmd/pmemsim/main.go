// Command pmemsim runs one (benchmark, mechanism) simulation and prints
// the measured metrics.
//
// Usage:
//
//	pmemsim -bench rbtree -mech tcache [-ops 12000] [-scale 64] \
//	        [-cores 4] [-seed 1] [-tc 4096] [-v] [-json] \
//	        [-paper-scale] \
//	        [-trace-out trace.json] [-metrics-out metrics.csv] \
//	        [-sample-every 1000] [-tx-sample N]
//
// The defaults are pmemaccel.DefaultConfig's, and every flag that sets a
// Config field is defined once in internal/cliflags: an explicit 0 means
// what the field documents (-ops 0 runs 1000 operations, -scale 0 builds
// the full Table 2 machine, as -scale 1 does).
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
	"pmemaccel/internal/cliflags"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/prof"
	"pmemaccel/internal/workload"
)

func main() {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
	bound := cliflags.Bind(flag.CommandLine, &cfg, cliflags.All)
	profile := prof.Flags(flag.CommandLine)
	var (
		verbose     = flag.Bool("v", false, "print per-core and subsystem detail")
		asJSON      = flag.Bool("json", false, "emit the result as JSON")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON to this file (enables observability)")
		metricsOut  = flag.String("metrics-out", "", "write a sampled time-series CSV to this file (enables observability)")
		sampleEvery = flag.Uint64("sample-every", 1000, "sampling period in cycles for -metrics-out")
	)
	flag.Parse()
	if err := checkSampleEveryFlag(*metricsOut, *sampleEvery); err != nil {
		fatal(err)
	}
	stop, err := profile()
	if err != nil {
		fatal(err)
	}
	defer stop()

	if *traceOut != "" || *metricsOut != "" || cfg.Obs.TxSample > 0 {
		cfg.Obs.Enabled = true
		if *metricsOut != "" {
			cfg.Obs.SampleEvery = *sampleEvery
		}
	}
	if bound.PaperScale {
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
