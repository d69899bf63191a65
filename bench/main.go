// Command bench is pmemaccel's benchmark. Each workload is one cell of the
// paper's evaluation grid, measured as a whole Run (NewSystem plus
// System.Run) in a closed loop: one simulation at a time, in this one
// process, on the serial kernel. Everything is timed from outside through
// the public API.
//
//	go run ./bench                        # untraced: end-to-end metrics
//	go run ./bench -trace 1               # traced: per-layer metrics
//	go run ./bench -workload sps-sp-4c -seed 7 -seconds 10
//
// With -workload all (the default) the cells run round-robin, so host
// drift falls evenly on all of them. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics;
// the exit code is non-zero when any rep failed. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to run every workload round-robin")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 0, "measure for this many seconds (0: a fixed 16 rounds, 6 when traced)")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := fs.String("o", ".bench_build/out", "directory for the traced run's profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-o dir]")
		return 2
	}
	cs, err := selectCells(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	p := plan{seed: *seed, seconds: *seconds, rounds: 16, log: stderr}
	if *trace == 1 {
		p.rounds = 6
		p.tr = &tracer{out: *out}
	}
	runs, err := runCells(cs, p)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := report(stdout, runs, p)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func selectCells(name string) ([]cell, error) {
	if name == "all" {
		return cells, nil
	}
	for _, c := range cells {
		if c.name == name {
			return []cell{c}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is how long and how a run measures.
type plan struct {
	seed    uint64
	seconds int // > 0: timed rounds continue until this many seconds pass
	rounds  int // otherwise: this many timed rounds
	tr      *tracer
	log     io.Writer
}

// minRounds keeps quartiles meaningful when a short -seconds budget would
// otherwise end after one or two reps.
const minRounds = 3

func (p plan) more(round int, elapsed time.Duration) bool {
	if p.seconds > 0 {
		return round < minRounds || elapsed < time.Duration(p.seconds)*time.Second
	}
	return round < p.rounds
}

// cellRun accumulates one cell's reps across rounds.
type cellRun struct {
	cell
	log               io.Writer
	digest            string // the first passing rep's; every later rep must match
	attempted, failed int

	e2e    map[string][]float64 // end-to-end metric -> one value per timed untraced rep
	layer  map[string][]float64 // per-layer metric -> one value per traced rep
	cpu    map[string]int64     // host CPU ns per layer over the traced reps
	allocs map[string]int64     // objects allocated per layer over the traced reps
}

// runCells runs one discarded warm-up round, then timed rounds; each round
// runs every cell once in turn, untraced or as a traced round.
func runCells(cs []cell, p plan) ([]*cellRun, error) {
	if p.tr != nil {
		if err := os.MkdirAll(p.tr.out, 0o755); err != nil {
			return nil, err
		}
	}
	runs := make([]*cellRun, len(cs))
	for i, c := range cs {
		runs[i] = &cellRun{cell: c, log: p.log, e2e: map[string][]float64{}, layer: map[string][]float64{},
			cpu: map[string]int64{}, allocs: map[string]int64{}}
		runs[i].untraced(p.seed, false)
	}
	start := time.Now()
	for round := 0; p.more(round, time.Since(start)); round++ {
		for _, cr := range runs {
			if p.tr == nil {
				cr.untraced(p.seed, true)
			} else if err := cr.traced(p.seed, p.tr, round); err != nil {
				return nil, err
			}
		}
	}
	if p.tr == nil {
		return runs, nil
	}
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.name
	}
	if err := p.tr.write(filepath.Join(p.tr.out, "spans.json"), names); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(p.tr.out, "allocs.pprof"))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return nil, err
	}
	return runs, f.Close()
}

// untraced runs one untraced rep between two host probes; keep records
// its end-to-end metrics.
func (cr *cellRun) untraced(seed uint64, keep bool) {
	before := probeHost()
	runtime.GC()
	r := measure(cr.cell, seed, false)
	digest, err := verify(cr.cell, r)
	r.sys = nil // probe with only the Result live, as before the rep
	after := probeHost()
	if cr.tally(digest, err) && keep {
		for k, x := range endToEndValues(r, 2*refNominal/(before+after)) {
			cr.e2e[k] = append(cr.e2e[k], x)
		}
	}
}

// tally counts one attempted rep and reports whether it passed: no error,
// and the same digest as every earlier passing rep.
func (cr *cellRun) tally(digest string, err error) bool {
	cr.attempted++
	if err == nil && cr.digest != "" && digest != cr.digest {
		err = fmt.Errorf("result digest %.12s differs from the first rep's %.12s", digest, cr.digest)
	}
	if err != nil {
		cr.failed++
		fmt.Fprintf(cr.log, "bench: %s rep %d failed: %v\n", cr.name, cr.attempted, err)
		return false
	}
	if cr.digest == "" {
		cr.digest = digest
	}
	return true
}

// stat is a metric over reps. Derived metrics (shares, ratios of medians)
// carry NaN quartiles.
type stat struct {
	median, q1, q3 float64
	n              int
}

func summarize(xs []float64) stat {
	q := quartiles(xs)
	return stat{median: q[1], q1: q[0], q3: q[2], n: len(xs)}
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method). A single value is all three; no values give zeros.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints each cell's metric table and builds the result line:
// the end-to-end metrics, or the per-layer ones for a traced run. With
// more than one cell, metric names are prefixed with "<cell>/".
func report(w io.Writer, runs []*cellRun, p plan) result {
	res := result{Metrics: map[string]value{}}
	for _, cr := range runs {
		res.Attempted += cr.attempted
		res.Failed += cr.failed
		c := cr.config(p.seed)
		fmt.Fprintf(w, "== %s: %s/%s, %d cores, Ops %d, Scale %d, seed %d\n",
			cr.name, c.Benchmark, c.Mechanism, c.Cores, c.Ops, c.Scale, p.seed)
		fmt.Fprintf(w, "   digest %s  reps %d  failed %d  fail_frac %.4f\n",
			cr.digest, cr.attempted, cr.failed, ratio(float64(cr.failed), float64(cr.attempted)))
		fmt.Fprintf(w, "   raw medians: setup %.6g s, wall %.6g s; host reference %.6g s (nominal %g s)\n",
			median(cr.e2e["setup_raw_s"]), median(cr.e2e["wall_raw_s"]), median(cr.e2e["host_ref_s"]), refNominal)
		defs, vals := endToEnd, map[string]stat{}
		for k, xs := range cr.e2e {
			vals[k] = summarize(xs)
		}
		if p.tr != nil {
			defs, vals = perLayer, cr.perLayerValues()
		}
		fmt.Fprintf(w, "   %-30s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, d := range defs {
			s := vals[d.name]
			fmt.Fprintf(w, "   %-30s %-10s %14s %14s %14s %4d\n", d.name, d.unit, num(s.median), num(s.q1), num(s.q3), s.n)
			key := d.name
			if len(runs) > 1 {
				key = cr.name + "/" + d.name
			}
			res.Metrics[key] = value{Value: s.median, Unit: d.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func num(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.6g", x)
}
