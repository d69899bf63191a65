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
//	crashtest -bench rbtree -mech tcache -nvm-channels 2  # two NVM channels
//	crashtest -mech optimal        # watch the baseline corrupt itself
//
// The machine and workload flags are pmemsim's (internal/cliflags); the
// defaults differ: 800 ops, 2000 prepopulated elements and Scale 128.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmemaccel"
	"pmemaccel/internal/cliflags"
	"pmemaccel/internal/recovery"
	"pmemaccel/internal/workload"
)

func main() {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
	cfg.Ops, cfg.InitialSize, cfg.Scale = 800, 2000, 128
	cliflags.Bind(flag.CommandLine, &cfg, cliflags.Bench|cliflags.Mech|cliflags.Workload|cliflags.Machine)
	var (
		trials  = flag.Int("trials", 20, "number of crash points")
		verbose = flag.Bool("v", false, "print every trial")
	)
	flag.Parse()
	if *trials < 0 {
		fatal(fmt.Errorf("-trials %d is negative; pass 0 or more crash points", *trials))
	}

	start := time.Now()
	horizon, err := recovery.Horizon(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload horizon: %d cycles; injecting %d crashes (%v/%v)\n",
		horizon, *trials, cfg.Benchmark, cfg.Mechanism)

	results, violations, err := recovery.Sweep(cfg, *trials, horizon, cfg.Seed+1)
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
		if cfg.Mechanism == pmemaccel.Optimal {
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
