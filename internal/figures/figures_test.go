package figures

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/workload"
)

func smallGrid(t *testing.T) *Grid {
	t.Helper()
	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(b, m)
		cfg.Cores = 2
		cfg.Scale = 256
		cfg.InitialSize = 500
		cfg.Ops = 150
		return cfg
	}
	g, err := Run([]workload.Benchmark{workload.SPS, workload.Hashtable}, Mechs, configure, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridProducesAllFigures(t *testing.T) {
	g := smallGrid(t)
	for n := 6; n <= 10; n++ {
		s, err := g.Figure(n)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		// Normalized: the Optimal column is exactly 1 wherever the
		// raw baseline is nonzero (a zero baseline NaNs the row —
		// possible for write traffic at test scale).
		for _, bench := range s.Benchs {
			v := s.Get(bench, pmemaccel.Optimal.String())
			if v != 1.0 && !math.IsNaN(v) {
				t.Errorf("figure %d: %s optimal = %v, want 1.0 or NaN", n, bench, v)
			}
		}
		if !strings.Contains(s.Table(), "geomean") {
			t.Errorf("figure %d table lacks geomean", n)
		}
	}
	if _, err := g.Figure(11); err == nil {
		t.Fatal("figure 11 accepted")
	}
}

func TestFig6OrderingHolds(t *testing.T) {
	g := smallGrid(t)
	f6 := g.Fig6()
	sp := f6.Geomean(pmemaccel.SP.String())
	tc := f6.Geomean(pmemaccel.TCache.String())
	if !(sp < tc) {
		t.Errorf("SP geomean IPC %.3f not below TCache %.3f", sp, tc)
	}
	if tc > 1.02 {
		t.Errorf("TCache geomean IPC %.3f exceeds Optimal", tc)
	}
}

func TestFig9OrderingHolds(t *testing.T) {
	// At test scale the Optimal baseline may produce no write-backs at
	// all (the working set fits in the LLC), so compare raw counts.
	g := smallGrid(t)
	for _, bench := range g.Benchs {
		sp := g.Results[bench][pmemaccel.SP].NVMWriteTraffic()
		tc := g.Results[bench][pmemaccel.TCache].NVMWriteTraffic()
		opt := g.Results[bench][pmemaccel.Optimal].NVMWriteTraffic()
		if !(sp > tc && tc > opt) {
			t.Errorf("%s: write traffic SP %d > TC %d > Optimal %d violated",
				bench, sp, tc, opt)
		}
	}
}

// TestStallTableMatchesTCFullStallFraction pins the §5.2 fix: the
// printed fraction is Result.TCFullStallFraction exactly — no residual
// division by the core count (which is already in TCFullStallFraction's
// denominator and used to be applied twice, under-reporting stall time
// 4x on a 4-core run).
func TestStallTableMatchesTCFullStallFraction(t *testing.T) {
	// Hand-built result: 4 cores, 1000 cycles, 40+10+0+30 = 80 stall
	// cycles over 4*1000 core-cycles = exactly 2%.
	r := &pmemaccel.Result{
		Cycles: 1000,
		PerCore: []cpu.Stats{
			{Breakdown: cpu.CycleBreakdown{TCFullStall: 40}},
			{Breakdown: cpu.CycleBreakdown{TCFullStall: 10}},
			{Breakdown: cpu.CycleBreakdown{TCFullStall: 0}},
			{Breakdown: cpu.CycleBreakdown{TCFullStall: 30}},
		},
	}
	want := r.TCFullStallFraction()
	if want != 0.02 {
		t.Fatalf("TCFullStallFraction = %v, want 0.02 (80 stalls / 4x1000 core-cycles)", want)
	}
	g := &Grid{
		Benchs: []workload.Benchmark{workload.SPS},
		Mechs:  []pmemaccel.Kind{pmemaccel.TCache},
		Results: map[workload.Benchmark]map[pmemaccel.Kind]*pmemaccel.Result{
			workload.SPS: {pmemaccel.TCache: r},
		},
	}
	table := g.StallTable()
	if !strings.Contains(table, " 2.000%") {
		t.Fatalf("stall table does not print TCFullStallFraction (2.000%%) verbatim:\n%s", table)
	}
	if strings.Contains(table, "0.500%") {
		t.Fatalf("stall table still divides by the core count:\n%s", table)
	}
}

// TestParallelGridIsDeterministic runs the same grid sequentially and on
// four workers and asserts every Result field behind Figures 6-10 (and
// the §5.2 table) is identical, regardless of completion order.
func TestParallelGridIsDeterministic(t *testing.T) {
	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(b, m)
		cfg.Cores = 2
		cfg.Scale = 256
		cfg.InitialSize = 400
		cfg.Ops = 120
		return cfg
	}
	benchs := []workload.Benchmark{workload.SPS, workload.RBTree}
	seq, err := Run(benchs, Mechs, configure, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var progress []string
	par, err := Run(benchs, Mechs, configure,
		func(b workload.Benchmark, m pmemaccel.Kind, r *pmemaccel.Result) {
			progress = append(progress, b.String()+"/"+m.String())
		}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benchs {
		for _, m := range Mechs {
			s, p := seq.Results[b][m], par.Results[b][m]
			if s.Cycles != p.Cycles {
				t.Errorf("%v/%v: cycles %d != %d", b, m, s.Cycles, p.Cycles)
			}
			if s.IPC() != p.IPC() {
				t.Errorf("%v/%v: IPC %v != %v", b, m, s.IPC(), p.IPC())
			}
			if s.Throughput() != p.Throughput() {
				t.Errorf("%v/%v: throughput %v != %v", b, m, s.Throughput(), p.Throughput())
			}
			if s.LLCMissRate != p.LLCMissRate {
				t.Errorf("%v/%v: LLC miss rate %v != %v", b, m, s.LLCMissRate, p.LLCMissRate)
			}
			if s.NVMWriteTraffic() != p.NVMWriteTraffic() {
				t.Errorf("%v/%v: NVM writes %d != %d", b, m, s.NVMWriteTraffic(), p.NVMWriteTraffic())
			}
			if s.AvgPersistentLoadLatency() != p.AvgPersistentLoadLatency() {
				t.Errorf("%v/%v: pload latency %v != %v", b, m,
					s.AvgPersistentLoadLatency(), p.AvgPersistentLoadLatency())
			}
			if s.TCFullStallFraction() != p.TCFullStallFraction() {
				t.Errorf("%v/%v: stall fraction %v != %v", b, m, s.TCFullStallFraction(), p.TCFullStallFraction())
			}
		}
	}
	// The rendered artifacts must be byte-identical.
	for n := 6; n <= 10; n++ {
		sf, _ := seq.Figure(n)
		pf, _ := par.Figure(n)
		if sf.Table() != pf.Table() {
			t.Errorf("figure %d tables differ between -j 1 and -j 4:\n%s\n---\n%s",
				n, sf.Table(), pf.Table())
		}
	}
	if seq.StallTable() != par.StallTable() || seq.Summary() != par.Summary() {
		t.Error("stall table or summary differs between -j 1 and -j 4")
	}
	// Progress fired once per cell, in grid order (bench-major).
	if len(progress) != len(benchs)*len(Mechs) {
		t.Fatalf("progress fired %d times for %d cells", len(progress), len(benchs)*len(Mechs))
	}
	i := 0
	for _, b := range benchs {
		for _, m := range Mechs {
			if want := b.String() + "/" + m.String(); progress[i] != want {
				t.Fatalf("progress[%d] = %s, want %s (grid order)", i, progress[i], want)
			}
			i++
		}
	}
}

func TestStallTableAndSummaryRender(t *testing.T) {
	g := smallGrid(t)
	st := g.StallTable()
	if !strings.Contains(st, "sps") || !strings.Contains(st, "%") {
		t.Errorf("stall table malformed:\n%s", st)
	}
	sum := g.Summary()
	for _, want := range []string{"tcache", "kiln", "sp", "IPC", "throughput"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestMetricsTableAndPercentileSeries runs a metrics-enabled grid and
// checks the two metrics renderings: MetricsTable emits one snapshot
// block per cell, and the TxLatencyP99 series is positive everywhere
// (every mechanism commits transactions) with histogram rows agreeing
// with the cell's own snapshot.
func TestMetricsTableAndPercentileSeries(t *testing.T) {
	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(b, m)
		cfg.Cores = 2
		cfg.Scale = 256
		cfg.InitialSize = 500
		cfg.Ops = 150
		cfg.Obs.Metrics = true
		return cfg
	}
	g, err := Run([]workload.Benchmark{workload.SPS}, Mechs, configure, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := g.MetricsTable()
	for _, want := range []string{"sps/tcache", "tx_latency_cycles", "p99", "nvm_writes"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("metrics table missing %q", want)
		}
	}
	s := g.TxLatencyP99()
	for _, m := range Mechs {
		v := s.Get("sps", m.String())
		if v <= 0 {
			t.Errorf("tx latency p99 for %v = %v, want > 0", m, v)
		}
		want := g.Results[workload.SPS][m].Metrics.Histogram("tx_latency_cycles")
		if want != nil && v != float64(want.P99) {
			t.Errorf("series p99 %v != snapshot p99 %d for %v", v, want.P99, m)
		}
	}

	// A metrics-free grid renders an empty table and a zero series.
	plain := smallGrid(t)
	if got := plain.MetricsTable(); got != "" {
		t.Errorf("metrics-free grid rendered a table: %q", got)
	}
	if v := plain.TxLatencyP99().Get("sps", "tcache"); v != 0 {
		t.Errorf("metrics-free grid p99 = %v, want 0", v)
	}
}

// TestContentionSweepDeterministicAndConsistent runs a tiny contention
// sweep twice (-j 1 and -j 4) and pins: byte-identical renderings across
// worker counts, an Optimal share column of exactly 1, zero aborts on
// the degenerate single-core row, and real aborts on the contended
// multi-core row.
func TestContentionSweepDeterministicAndConsistent(t *testing.T) {
	configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
		cfg := pmemaccel.DefaultConfig(b, m)
		cfg.Scale = 256
		cfg.InitialSize = 300
		cfg.Ops = 80
		return cfg
	}
	mechs := []pmemaccel.Kind{pmemaccel.TCache, pmemaccel.Optimal}
	cores := []int{1, 4}
	pcts := []float64{0.9}
	seqIPC, seqShare, seqAbort, err := ContentionSweep(cores, pcts, mechs, configure, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	parIPC, parShare, parAbort, err := ContentionSweep(cores, pcts, mechs, configure, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]string{
		{seqIPC.CSV(), parIPC.CSV()},
		{seqShare.CSV(), parShare.CSV()},
		{seqAbort.CSV(), parAbort.CSV()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("sweep series %d differs across worker counts:\n-j1:\n%s\n-j4:\n%s", i, pair[0], pair[1])
		}
	}
	for _, row := range []string{"1c/90%", "4c/90%"} {
		if v := seqIPC.Get(row, "tcache"); v <= 0 {
			t.Errorf("%s tcache IPC = %v, want positive", row, v)
		}
		if v := seqShare.Get(row, "optimal"); v != 1.0 {
			t.Errorf("%s optimal share = %v, want exactly 1", row, v)
		}
	}
	if v := seqAbort.Get("1c/90%", "tcache"); v != 0 {
		t.Errorf("single-core abort rate = %v%%, want 0 (no cross-core conflicts possible)", v)
	}
	if v := seqAbort.Get("4c/90%", "tcache"); v <= 0 {
		t.Errorf("4-core 90%%-contention abort rate = %v%%, want positive", v)
	}
}

// TestRenderingAcrossCoreWidths pins the figures rendering paths that
// used to assume the paper's fixed 4-core machine: the stall table,
// summary, and per-transaction stage breakdown must render (and stay
// internally sized) at every supported width, 1 through 64.
func TestRenderingAcrossCoreWidths(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		t.Run(fmt.Sprintf("%dcores", n), func(t *testing.T) {
			t.Parallel()
			configure := func(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
				cfg := pmemaccel.DefaultConfig(b, m)
				cfg.Cores = n
				cfg.Scale = 256
				cfg.InitialSize = 200
				cfg.Ops = 60
				cfg.Obs.Enabled = true
				cfg.Obs.TxSample = 1
				return cfg
			}
			g, err := Run([]workload.Benchmark{workload.Bank},
				[]pmemaccel.Kind{pmemaccel.TCache}, configure, nil, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := g.Results[workload.Bank][pmemaccel.TCache]
			if len(r.PerCore) != n {
				t.Fatalf("result has %d cores, want %d", len(r.PerCore), n)
			}
			if !strings.Contains(g.StallTable(), "bank") {
				t.Error("stall table failed to render")
			}
			if !strings.Contains(g.Summary(), "tcache") {
				t.Error("summary failed to render")
			}
			sb := g.StageBreakdown()
			for _, want := range []string{"bank/tcache", "execute"} {
				if !strings.Contains(sb, want) {
					t.Errorf("stage breakdown at %d cores missing %q:\n%s", n, want, sb)
				}
			}
		})
	}
}
