// Package ablation sweeps the design parameters the paper identifies as
// knobs: transaction-cache capacity ("flexibly configured based on the
// transaction sizes", §3), the overflow high-water mark (§4.1), the TC
// drain bandwidth, NVM write latency (technology sensitivity), the
// core's memory-level parallelism, and the backend's NVM channel count
// (memory-side parallelism). Each sweep varies exactly one
// parameter and reports throughput plus the mechanism-specific pressure
// counters, producing the data behind examples/designspace and
// BenchmarkAblation*.
package ablation

import (
	"fmt"
	"strings"

	"pmemaccel"
	"pmemaccel/internal/sweep"
	"pmemaccel/internal/workload"
)

// Point is one sweep sample.
type Point struct {
	// Label names the parameter value ("4KB", "0.9", ...).
	Label string
	// Value is the numeric parameter value.
	Value float64
	// Throughput in transactions per kilocycle.
	Throughput float64
	// IPC of the run.
	IPC float64
	// StallPct is the TC-full stall share of cycles (TCache runs).
	StallPct float64
	// FallbackWrites and FullRejects are TC pressure counters summed
	// across cores.
	FallbackWrites uint64
	FullRejects    uint64
}

// Sweep is a named series of points.
type Sweep struct {
	Name   string
	Points []Point
}

// Table renders the sweep.
func (s *Sweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "%-10s %12s %8s %10s %12s %12s\n",
		"value", "tx/kcycle", "IPC", "stall %", "fallbacks", "rejects")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-10s %12.3f %8.3f %9.3f%% %12d %12d\n",
			p.Label, p.Throughput, p.IPC, p.StallPct, p.FallbackWrites, p.FullRejects)
	}
	return b.String()
}

// point is one sweep cell before simulation: a configuration plus its
// axis label and value.
type point struct {
	cfg   pmemaccel.Config
	label string
	value float64
}

// runPoints simulates every cell on a bounded worker pool (workers <= 0
// selects GOMAXPROCS). Each cell seeds its own RNG from its
// configuration, and points land in sweep order regardless of
// completion order, so the table is bit-identical to a sequential run.
func runPoints(name string, pts []point, workers int) (*Sweep, error) {
	results, err := sweep.Run(len(pts), workers, func(i int) (Point, error) {
		res, err := pmemaccel.Run(pts[i].cfg)
		if err != nil {
			return Point{}, fmt.Errorf("ablation: %s: %w", pts[i].label, err)
		}
		p := Point{
			Label:      pts[i].label,
			Value:      pts[i].value,
			Throughput: res.Throughput(),
			IPC:        res.IPC(),
		}
		// TCFullStallFraction is already normalized by cores x Cycles; print
		// it as-is (this used to divide by the core count a second
		// time, under-reporting stalls 4x on the default machine).
		p.StallPct = res.TCFullStallFraction() * 100
		for _, tc := range res.TC {
			p.FallbackWrites += tc.FallbackWrites
			p.FullRejects += tc.FullRejects
		}
		return p, nil
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Sweep{Name: name, Points: results}, nil
}

// TCSize sweeps the transaction-cache capacity on a benchmark, running
// cells on up to workers goroutines (<= 0 selects GOMAXPROCS).
func TCSize(base pmemaccel.Config, sizes []int, workers int) (*Sweep, error) {
	var pts []point
	for _, bytes := range sizes {
		cfg := base
		cfg.TCBytes = bytes
		pts = append(pts, point{cfg, fmt.Sprintf("%dB", bytes), float64(bytes)})
	}
	return runPoints(fmt.Sprintf("TC capacity sweep (%v)", base.Benchmark), pts, workers)
}

// HighWater sweeps the overflow trigger fraction.
func HighWater(base pmemaccel.Config, fracs []float64, workers int) (*Sweep, error) {
	var pts []point
	for _, f := range fracs {
		cfg := base
		cfg.TCHighWaterFrac = f
		pts = append(pts, point{cfg, fmt.Sprintf("%.2f", f), f})
	}
	return runPoints(fmt.Sprintf("overflow high-water sweep (%v)", base.Benchmark), pts, workers)
}

// MLP sweeps the core's memory-level-parallelism window.
func MLP(base pmemaccel.Config, windows []int, workers int) (*Sweep, error) {
	var pts []point
	for _, w := range windows {
		cfg := base
		cfg.MLP = w
		pts = append(pts, point{cfg, fmt.Sprintf("%d", w), float64(w)})
	}
	return runPoints(fmt.Sprintf("MLP window sweep (%v/%v)", base.Benchmark, base.Mechanism), pts, workers)
}

// Channels sweeps the NVM channel count of the memory backend, measuring
// how much memory-level parallelism at the NVM side buys each mechanism
// (DRAM stays single-channel so the axis isolates the persistent path).
func Channels(base pmemaccel.Config, counts []int, workers int) (*Sweep, error) {
	var pts []point
	for _, n := range counts {
		cfg := base
		cfg.NVMChannels = n
		pts = append(pts, point{cfg, fmt.Sprintf("%dch", n), float64(n)})
	}
	return runPoints(fmt.Sprintf("NVM channel sweep (%v/%v)", base.Benchmark, base.Mechanism), pts, workers)
}

// Default sweeps used by the CLI and benches.
var (
	DefaultTCSizes       = []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	DefaultHighWaters    = []float64{0.5, 0.7, 0.9, 1.0}
	DefaultMLPs          = []int{1, 2, 4, 8, 16}
	DefaultChannelCounts = []int{1, 2, 4, 8}
)

// QuickBase returns a fast base configuration for sweeps.
func QuickBase(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(b, m)
	cfg.Ops = 4000
	return cfg
}

// NVMTechnology sweeps the nonvolatile-memory technology class,
// measuring how the accelerator's advantage shifts with write latency
// (slower writes make software logging's fenced round-trips worse and
// stress the TC drain path harder).
func NVMTechnology(base pmemaccel.Config, techs []pmemaccel.NVMTech, workers int) (*Sweep, error) {
	var pts []point
	for _, tech := range techs {
		cfg := base
		cfg.NVMTech = tech
		pts = append(pts, point{cfg, tech.String(), float64(tech)})
	}
	return runPoints(fmt.Sprintf("NVM technology sweep (%v/%v)", base.Benchmark, base.Mechanism), pts, workers)
}
