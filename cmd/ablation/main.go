// Command ablation sweeps the accelerator's design parameters: the
// transaction-cache capacity, the overflow high-water mark, the core's
// memory-level-parallelism window, the NVM technology and the NVM
// channel count.
//
// Usage:
//
//	ablation                      # all sweeps on default benchmarks
//	ablation -sweep tcsize -bench sps
//	ablation -sweep highwater -bench btree
//	ablation -sweep mlp -bench rbtree -mech optimal
//	ablation -sweep channels -mech sp -seed 7 -scale 128
//
// Each sweep runs its default benchmark unless -bench names one; the
// tcsize and highwater sweeps always run TCache, the others -mech.
// -bench, -mech, -ops, -initial, -seed, -scale and -cores are pmemsim's
// flags (internal/cliflags) over ablation.QuickBase, whose 4000 ops are
// the -ops default; an explicit -ops 0 selects the Config's 1000.
package main

import (
	"flag"
	"fmt"
	"os"

	"pmemaccel"
	"pmemaccel/internal/ablation"
	"pmemaccel/internal/cliflags"
	"pmemaccel/internal/workload"
)

func main() {
	cfg := ablation.QuickBase(workload.Graph, pmemaccel.TCache)
	cliflags.Bind(flag.CommandLine, &cfg, cliflags.Bench|cliflags.Mech|cliflags.Ops|cliflags.Initial|cliflags.Seed|cliflags.Scale|cliflags.Cores)
	var (
		sweepName = flag.String("sweep", "", "tcsize, highwater, mlp, nvmtech, or channels (empty = all)")
		jobs      = flag.Int("j", 0, "concurrent sweep points (0 = all cores); tables are identical for every -j")
	)
	flag.Parse()
	benchSet := false
	flag.Visit(func(f *flag.Flag) { benchSet = benchSet || f.Name == "bench" })
	base := func(def workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		c := cfg
		if !benchSet {
			c.Benchmark = def
		}
		c.Mechanism = m
		return c
	}

	run := func(name string) {
		var s *ablation.Sweep
		var err error
		switch name {
		case "tcsize":
			s, err = ablation.TCSize(base(workload.SPS, pmemaccel.TCache), ablation.DefaultTCSizes, *jobs)
		case "highwater":
			s, err = ablation.HighWater(base(workload.BTree, pmemaccel.TCache), ablation.DefaultHighWaters, *jobs)
		case "mlp":
			s, err = ablation.MLP(base(workload.RBTree, cfg.Mechanism), ablation.DefaultMLPs, *jobs)
		case "nvmtech":
			s, err = ablation.NVMTechnology(base(workload.SPS, cfg.Mechanism), pmemaccel.NVMTechs, *jobs)
		case "channels":
			s, err = ablation.Channels(base(workload.SPS, cfg.Mechanism), ablation.DefaultChannelCounts, *jobs)
		default:
			fatal(fmt.Errorf("unknown sweep %q", name))
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(s.Table())
	}

	if *sweepName != "" {
		run(*sweepName)
		return
	}
	for _, name := range []string{"tcsize", "highwater", "mlp", "nvmtech", "channels"} {
		run(name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ablation:", err)
	os.Exit(1)
}
