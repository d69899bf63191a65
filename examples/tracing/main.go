// Tracing: run a short transaction-cache workload with the
// observability layer on and export both artifacts — a Chrome
// trace_event JSON of transaction lifecycles, TC drain bursts, LLC
// persistent-line drops and WPQ drain windows, plus a time-series CSV
// of TC occupancy and queue depths.
//
//	go run ./examples/tracing
//
// Open trace.json in chrome://tracing or https://ui.perfetto.dev;
// metrics.csv plots directly with any spreadsheet or gnuplot.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

func main() {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
	cfg.Cores = 2
	cfg.Ops = 1500
	cfg.Obs.Enabled = true
	cfg.Obs.SampleEvery = 1000 // one CSV row per thousand cycles

	sys, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	probe := sys.Obs.Probe()

	if err := writeFile("trace.json", probe.WriteChromeTrace); err != nil {
		log.Fatal(err)
	}
	if err := writeFile("metrics.csv", probe.WriteMetricsCSV); err != nil {
		log.Fatal(err)
	}

	fmt.Println("persistent memory accelerator — tracing")
	fmt.Printf("  run:            %v\n", res)
	fmt.Printf("  trace.json:     %d events recorded, %d dropped (ring full)\n",
		probe.Recorded(), probe.Dropped())
	fmt.Printf("  metrics.csv:    %d samples of %v\n",
		probe.SampleCount(), probe.SourceNames())
	fmt.Printf("\n%s", res.AttributionTable())
	fmt.Println("open trace.json in chrome://tracing or https://ui.perfetto.dev")
}

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
