package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

// cell is one workload: a cell of the paper's evaluation grid
// (benchmark × mechanism) at a fixed machine width and run length. Why
// each cell was chosen is recorded in README.md and BENCHMARK.json.
type cell struct {
	name       string
	bench      workload.Benchmark
	mech       pmemaccel.Kind
	cores      int
	ops        int
	contention float64 // BankShared only; 0 elsewhere
}

var cells = []cell{
	{name: "rbtree-tcache-4c", bench: workload.RBTree, mech: pmemaccel.TCache, cores: 4, ops: 3000},
	{name: "sps-sp-4c", bench: workload.SPS, mech: pmemaccel.SP, cores: 4, ops: 9000},
	{name: "bankshared-tcache-16c", bench: workload.BankShared, mech: pmemaccel.TCache, cores: 16, ops: 1000, contention: 0.5},
	{name: "graph-optimal-4c", bench: workload.Graph, mech: pmemaccel.Optimal, cores: 4, ops: 9000},
}

// config is the cell's simulation: DefaultConfig at Scale 128 with the
// default 4 KB transaction cache. The seed is the only workload input.
// Streaming and ParWorkers stay at their zero values on purpose, so the
// benchmark measures whatever the default Run path is.
func (c cell) config(seed uint64) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(c.bench, c.mech)
	cfg.Scale = 128
	cfg.Cores = c.cores
	cfg.Ops = c.ops
	cfg.ContentionPct = c.contention
	cfg.Seed = seed
	return cfg
}

// rep is one whole Run of a cell, timed from outside: NewSystem (trace
// generation and machine build) then System.Run (simulation, oracle fold
// and recovery check).
type rep struct {
	sys *pmemaccel.System
	res *pmemaccel.Result
	err error

	start, built, end time.Time
	allocs, bytes     uint64 // Mallocs and TotalAlloc deltas over the Run
	setupAllocs       uint64 // Mallocs delta over NewSystem alone
	stepped           uint64 // cycles the kernel stepped rather than skipped
}

func (r rep) setupS() float64 { return r.built.Sub(r.start).Seconds() }
func (r rep) wallS() float64  { return r.end.Sub(r.start).Seconds() }

// measure runs the cell once. The caller decides what happens around it
// (a GC before, a CPU profile around); measure itself only times and
// counts. The MemStats read at the NewSystem/Run boundary stops the world
// briefly, so it is taken only when split is set.
func measure(c cell, seed uint64, split bool) rep {
	var m0, mid, m1 runtime.MemStats
	var r rep
	runtime.ReadMemStats(&m0)
	r.start = time.Now()
	r.sys, r.err = pmemaccel.NewSystem(c.config(seed))
	r.built = time.Now()
	if r.err == nil {
		if split {
			runtime.ReadMemStats(&mid)
			r.setupAllocs = mid.Mallocs - m0.Mallocs
		}
		r.res, r.err = r.sys.Run()
	}
	r.end = time.Now()
	if r.err == nil {
		r.stepped = r.sys.Kernel.Now() - r.res.SkippedCycles
	}
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	return r
}

// verify checks one rep's outputs and returns its digest: a SHA-256 of
// the JSON-encoded Result, so two reps (or two commits) can be compared
// byte for byte.
func verify(c cell, r rep) (string, error) {
	if r.err != nil {
		return "", r.err
	}
	res := r.res
	if c.mech != pmemaccel.Optimal && res.DurableDiffCount != 0 {
		return "", fmt.Errorf("recovered NVM differs from the commit-order oracle in %d words", res.DurableDiffCount)
	}
	if n := r.sys.Kernel.PastSchedules(); n != 0 {
		return "", fmt.Errorf("%d events were scheduled in the past", n)
	}
	for i, st := range res.PerCore {
		if t := st.Breakdown.Total(); t != res.Cycles {
			return "", fmt.Errorf("core %d attributes %d cycles, run has %d", i, t, res.Cycles)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// endToEnd lists the untraced run's metrics in report order. Each is
// taken per rep; the report gives median, quartiles and n.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"stepped_cycles_per_s", "cycles/s"},
	{"sim_instr_per_s", "instr/s"},
	{"allocs_per_run", "allocs"},
	{"alloc_mb_per_run", "MB"},
	{"tx_per_kcycle", "tx/kcycle"},
}

type metricDef struct{ name, unit string }

// endToEndValues derives the end-to-end metrics of one verified rep. Times
// are scaled to nominal host speed by scale (see hostref.go); the raw
// times and the host reference ride along for the report header.
func endToEndValues(r rep, scale float64) map[string]float64 {
	wall := r.wallS() * scale
	res := r.res
	return map[string]float64{
		"setup_raw_s":          r.setupS(),
		"wall_raw_s":           r.wallS(),
		"host_ref_s":           refNominal / scale,
		"setup_s":              r.setupS() * scale,
		"wall_s":               wall,
		"sim_cycles_per_s":     float64(res.Cycles) / wall,
		"stepped_cycles_per_s": float64(r.stepped) / wall,
		"sim_instr_per_s":      float64(res.TotalInstructions()) / wall,
		"allocs_per_run":       float64(r.allocs),
		"alloc_mb_per_run":     float64(r.bytes) / 1e6,
		"tx_per_kcycle":        res.Throughput(),
	}
}
