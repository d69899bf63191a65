// Command crashtest fuzzes crash points: it runs the chosen workload
// under the chosen mechanism, pulls the plug at random cycles, recovers,
// and checks atomicity and structural integrity against the
// committed-transaction oracle.
//
// Usage:
//
//	crashtest -bench rbtree -mech tcache -trials 25
//	crashtest -bench bankshared -mech sp -cores 16 -contention 0.5
//	crashtest -bench sps -mech tcache -cores 16 -tc 256   # overflowed commits
//	crashtest -mech optimal        # watch the baseline corrupt itself
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmemaccel"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/recovery"
	"pmemaccel/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "rbtree", "benchmark: graph, rbtree, sps, btree, hashtable, bank, bankshared")
		mechName   = flag.String("mech", "tcache", "mechanism: sp, tcache, kiln, optimal")
		trials     = flag.Int("trials", 20, "number of crash points")
		ops        = flag.Int("ops", 800, "operations per core")
		initial    = flag.Int("initial", 2000, "prepopulated elements per core")
		scale      = flag.Int("scale", 128, "cache scale divisor")
		cores      = flag.Int("cores", 0, "core count, a power of two up to 64 (0 = 4)")
		contention = flag.Float64("contention", 0, "shared-op fraction for -bench bankshared, in (0,1] (0 = workload default 0.5)")
		tcBytes    = flag.Int("tc", 0, "transaction cache bytes per core (0 = 4096); a small TC sends transactions down the copy-on-write fall-back")
		seed       = flag.Uint64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print every trial")
	)
	flag.Parse()
	if err := pmemaccel.ValidateCLICores(*cores); err != nil {
		fatal(fmt.Errorf("-cores: %w", err))
	}
	if *trials < 0 {
		fatal(fmt.Errorf("-trials %d is negative; pass 0 or more crash points", *trials))
	}
	if *tcBytes < 0 {
		fatal(fmt.Errorf("-tc %d is negative; pass a positive value or omit the flag for the default", *tcBytes))
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
	cfg.Ops = *ops
	cfg.InitialSize = *initial
	cfg.Scale = *scale
	if *cores > 0 {
		cfg.Cores = *cores
	}
	cfg.ContentionPct = *contention
	if *tcBytes > 0 {
		cfg.TCBytes = *tcBytes
	}
	cfg.Seed = *seed

	start := time.Now()
	horizon, err := recovery.Horizon(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload horizon: %d cycles; injecting %d crashes (%v/%v)\n",
		horizon, *trials, b, m)

	results, violations, err := recovery.Sweep(cfg, *trials, horizon, *seed+1)
	if err != nil {
		fatal(err)
	}
	for _, tr := range results {
		if *verbose || !tr.OK() {
			fmt.Println(" ", tr)
		}
	}
	fmt.Printf("\n%d/%d trials consistent (%v elapsed)\n",
		len(results)-violations, len(results), time.Since(start).Round(time.Millisecond))
	if violations > 0 {
		if m == pmemaccel.Optimal {
			fmt.Println("violations are EXPECTED for the no-persistence baseline — " +
				"this is the failure mode the accelerator prevents")
			return
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashtest:", err)
	os.Exit(1)
}
