package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pmemaccel/internal/memimage"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q (unit %q) is not a valid name and unit", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, c := range cells {
		if !nameRE.MatchString(c.name) {
			t.Errorf("workload %q is not a valid name", c.name)
		}
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json that must
// agree with this package.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmokeEmitsDeclaredMetrics runs every workload at a few operations
// through one traced round and checks that both reports carry exactly the
// metrics BENCHMARK.json declares, with their units, and that every rep
// (untraced and traced) passed with one digest.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	bj := declared(t)
	var tiny []cell
	for i, c := range cells {
		if bj.Workloads[i].Name != c.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, want %q", i, bj.Workloads[i].Name, c.name)
		}
		c.ops = 20
		tiny = append(tiny, c)
	}
	if len(bj.Workloads) != len(cells) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(cells))
	}
	p := plan{seed: 1, rounds: 1, tr: &tracer{out: t.TempDir()}, log: io.Discard}
	runs, err := runCells(tiny, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range runs {
		// Warm-up, then one untraced and one traced rep.
		if cr.failed != 0 || cr.attempted != 3 {
			t.Errorf("%s: %d of %d reps failed, want 0 of 3", cr.name, cr.failed, cr.attempted)
		}
	}
	check := func(res result, want []struct{ Name, Unit string }) {
		t.Helper()
		if !res.Correct {
			t.Error("result not correct")
		}
		got := map[string]string{}
		for k, v := range res.Metrics {
			got[k] = v.Unit
		}
		for _, c := range cells {
			for _, m := range want {
				k := c.name + "/" + m.Name
				if u, ok := got[k]; !ok || u != m.Unit {
					t.Errorf("metric %s: unit %q, declared %q", k, u, m.Unit)
				}
				delete(got, k)
			}
		}
		for k := range got {
			t.Errorf("metric %s is not declared in BENCHMARK.json", k)
		}
	}
	check(report(io.Discard, runs, plan{seed: 1}), bj.EndToEnd)
	check(report(io.Discard, runs, p), bj.PerLayer)
	for _, f := range []string{"spans.json", "allocs.pprof"} {
		if _, err := os.Stat(p.tr.out + "/" + f); err != nil {
			t.Error(err)
		}
	}
}

func TestInvalidConfigCountsAsFailure(t *testing.T) {
	bad := cell{name: "bad", bench: cells[0].bench, mech: cells[0].mech, cores: 4, ops: 10, contention: 2}
	var log bytes.Buffer
	runs, err := runCells([]cell{bad}, plan{seed: 1, rounds: 1, log: &log})
	if err != nil {
		t.Fatal(err)
	}
	res := report(io.Discard, runs, plan{seed: 1})
	if res.Correct || res.Attempted != 2 || res.Failed != 2 {
		t.Errorf("invalid config: correct %v, %d of %d failed; want false, 2 of 2", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(log.String(), "ContentionPct") {
		t.Errorf("failure log does not name the bad field:\n%s", log.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 2, 7.5}, [3]float64{1.75, 5, 8.375}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"pmemaccel/internal/txcache.(*LineArbiter).Acquire", "pmemaccel/internal/mechanism.(*TCache).Write"}, "arbiter"},
		{[]string{"pmemaccel/internal/mechanism.(*conflictGuard).check", "pmemaccel/internal/cpu.(*Core).Tick"}, "arbiter"},
		{[]string{"pmemaccel/internal/txcache.(*TxCache).Write"}, "txcache"},
		{[]string{"runtime.mapassign_fast64", "pmemaccel/internal/memimage.(*Image).WriteWord", "pmemaccel/internal/cache.(*Hierarchy).Access"}, "memimage"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.mallocgc", "main.measure", "main.main"}, "runtime"},
		{[]string{"pmemaccel/internal/memaddr.Classify", "pmemaccel.CheckDurable"}, "oracle"},
		{[]string{"pmemaccel/internal/pheap.(*Heap).Alloc", "pmemaccel/internal/workload.(*rbtree).insert"}, "workload"},
		{[]string{"pmemaccel/internal/obs/metrics.(*Histogram).Observe"}, "obs"},
		{[]string{"pmemaccel.NewSystem.func1"}, "oracle"},
		{[]string{"pmemaccel/internal/sim.(*Kernel).RunUntil", "pmemaccel.(*System).Run"}, "sim"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

var sink *memimage.Image

// TestDecodeProfiles decodes a CPU profile and two allocs profiles written
// here by runtime/pprof around work done in memimage, and checks that the
// fold charges that work to memimage, with the rest in runtime, and that
// shares sum to 1.
func TestDecodeProfiles(t *testing.T) {
	allocsNow := func() map[string]int64 {
		t.Helper()
		runtime.GC()
		var b bytes.Buffer
		if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
			t.Fatal(err)
		}
		return fold(t, b.Bytes(), "alloc_objects")
	}
	before := allocsNow()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink = memimage.New()
		sink.WriteWord(8, 1)
	}
	pprof.StopCPUProfile()
	after := allocsNow()
	for l := range after {
		after[l] -= before[l]
	}

	for name, byLayer := range map[string]map[string]int64{
		"cpu":    fold(t, cpu.Bytes(), "cpu"),
		"allocs": after,
	} {
		sh := shares(byLayer)
		var sum float64
		for _, x := range sh {
			sum += x
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: shares sum to %v, want 1", name, sum)
		}
		// Under -race, samples inside the race runtime carry no Go
		// frames, so only a floor is asserted for memimage.
		if sh["memimage"] < 0.2 || sh["memimage"]+sh["runtime"] < 0.99 {
			t.Errorf("%s: shares %v, want memimage and runtime only, memimage at least 0.2", name, sh)
		}
	}
}

func fold(t *testing.T, b []byte, sampleType string) map[string]int64 {
	t.Helper()
	p, err := decodeProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := p.byLayer(sampleType)
	if err != nil {
		t.Fatal(err)
	}
	return byLayer
}
