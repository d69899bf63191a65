// designspace: sweep the transaction-cache capacity — the paper's claim
// that "the capacity of the transaction cache can be flexibly configured
// based on the transaction sizes of the processor's target applications"
// (§3). Small TCs overflow to the copy-on-write fall-back and stall; the
// 4 KB default absorbs every benchmark except the write-storm sps, which
// stalls briefly (§5.2: 0.67% of execution time in the paper).
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

func main() {
	fmt.Println("transaction-cache capacity sweep (sps: the most write-intensive benchmark)")
	fmt.Printf("%-8s %12s %12s %14s %14s\n", "TC size", "tx/kcycle", "stall %", "fallback txs", "full rejects")

	var baseline float64
	for _, tcBytes := range []int{256, 512, 1024, 2048, 4096, 8192, 16384} {
		cfg := pmemaccel.DefaultConfig(workload.SPS, pmemaccel.TCache)
		cfg.TCBytes = tcBytes
		cfg.Ops = 6000
		res, err := pmemaccel.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		stall := res.TCFullStallFraction() * 100
		var fallbacks, rejects uint64
		for _, tc := range res.TC {
			fallbacks += tc.FallbackWrites
			rejects += tc.FullRejects
		}
		if tcBytes == 4096 {
			baseline = res.Throughput()
		}
		fmt.Printf("%5d B %12.3f %11.3f%% %14d %14d\n",
			tcBytes, res.Throughput(), stall, fallbacks, rejects)
	}
	fmt.Println()
	fmt.Printf("the Table 2 default (4 KB) reaches %.3f tx/kcycle; larger TCs buy little,\n", baseline)
	fmt.Println("smaller ones push transactions onto the copy-on-write fall-back path —")
	fmt.Println("size the TC to the target applications' transaction footprints")
}
