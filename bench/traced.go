package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"pmemaccel"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/workload"
)

// layers are the simulator's parts as host time and allocations are
// charged to them: its packages (pheap folded into workload), the shared-
// line arbiter split out of txcache and mechanism, the root package's own
// code as oracle, and runtime for samples with no pmemaccel frame.
var layers = []string{
	"workload", "trace", "sim", "cpu", "cache", "txcache", "arbiter",
	"mechanism", "memctrl", "memimage", "obs", "oracle", "runtime",
}

// perLayer lists the traced run's metrics in report order.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"phase.run_s", "s"},
		{"oracle.expected_s", "s"},
		{"mechanism.recover_s", "s"},
		{"oracle.check_s", "s"},
		{"workload.gen_s", "s"},
		{"workload.records", "count"},
		{"workload.ns_per_record", "ns"},
		{"phase.setup_allocs", "allocs"},
		{"phase.run_allocs", "allocs"},
		{"heap.setup_live_mb", "MB"},
	}
	for _, l := range layers {
		ms = append(ms, metricDef{"host_share." + l, "ratio"})
	}
	for _, l := range layers {
		ms = append(ms, metricDef{"alloc_share." + l, "ratio"})
	}
	return append(ms,
		metricDef{"sim.stepped_cycles", "cycles"},
		metricDef{"sim.skipped_frac", "ratio"},
		metricDef{"sim.ns_per_stepped_cycle", "ns"},
		metricDef{"cpu.instructions", "count"},
		metricDef{"cpu.abort_rate", "ratio"},
		metricDef{"cpu.wasted_instr_frac", "ratio"},
		metricDef{"cpu.ns_per_instr", "ns"},
		metricDef{"cache.accesses", "count"},
		metricDef{"cache.llc_miss_rate", "ratio"},
		metricDef{"cache.side_probe_hit_frac", "ratio"},
		metricDef{"cache.ns_per_access", "ns"},
		metricDef{"txcache.writes", "count"},
		metricDef{"txcache.fallback_frac", "ratio"},
		metricDef{"txcache.full_rejects", "count"},
		metricDef{"txcache.ns_per_write", "ns"},
		metricDef{"arbiter.acquires", "count"},
		metricDef{"arbiter.conflict_frac", "ratio"},
		metricDef{"arbiter.ns_per_acquire", "ns"},
		metricDef{"memctrl.nvm_reads", "count"},
		metricDef{"memctrl.nvm_writes", "count"},
		metricDef{"memctrl.dram_reads", "count"},
		metricDef{"memctrl.nvm_write_queue_peak", "count"},
		metricDef{"memctrl.ns_per_request", "ns"},
		metricDef{"oracle.committed_tx", "count"},
		metricDef{"oracle.ns_per_committed_tx", "ns"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}()

// perUnit derives host nanoseconds per unit of simulated work: the
// layer's host share of the traced Run times its wall time, over the
// per-rep count.
var perUnit = []struct{ metric, layer, count string }{
	{"sim.ns_per_stepped_cycle", "sim", "sim.stepped_cycles"},
	{"cpu.ns_per_instr", "cpu", "cpu.instructions"},
	{"cache.ns_per_access", "cache", "cache.accesses"},
	{"txcache.ns_per_write", "txcache", "txcache.writes"},
	{"arbiter.ns_per_acquire", "arbiter", "arbiter.acquires"},
	{"memctrl.ns_per_request", "memctrl", "memctrl.requests"},
	{"oracle.ns_per_committed_tx", "oracle", "oracle.committed_tx"},
}

// traced runs one traced round of the cell: it measures the built
// system's heap, then runs an untraced rep and a traced rep back to back,
// so both see the same drift; their wall ratio is the tracing overhead.
// The second rep of a pair runs faster (its heap is already mapped), so
// the order alternates from round to round. Rep failures are tallied; the
// returned error is for the environment (a profiler already running, an
// unwritable output directory).
func (cr *cellRun) traced(seed uint64, t *tracer, round int) error {
	liveMB, err := setupLiveMB(cr.cell, seed)
	if err != nil {
		cr.tally("", err)
		return nil
	}
	if round%2 == 0 {
		cr.untraced(seed, true)
	}
	err = cr.tracedRep(seed, t, liveMB)
	if round%2 == 1 {
		cr.untraced(seed, true)
	}
	return err
}

// tracedRep is a whole Run under a CPU profile with allocation snapshots
// around it, followed by spans that re-call the oracle, recovery and
// generator on their own.
func (cr *cellRun) tracedRep(seed uint64, t *tracer, liveMB float64) error {
	runtime.GC()
	before, err := allocsByLayer()
	if err != nil {
		return err
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r := measure(cr.cell, seed, true)
	pprof.StopCPUProfile()
	runtime.GC()
	after, err := allocsByLayer()
	if err != nil {
		return err
	}

	// The rep span ends with the run unless the follow-up spans below run.
	root := t.add("rep", cr.name, 0, r.start, r.end)
	t.add("setup", cr.name, root, r.start, r.built)
	t.add("run", cr.name, root, r.built, r.end)

	digest, err := verify(cr.cell, r)
	if err != nil {
		cr.tally("", err)
		return nil
	}
	v := map[string]float64{
		"wall_s":             r.wallS(),
		"phase.run_s":        r.end.Sub(r.built).Seconds(),
		"phase.setup_allocs": float64(r.setupAllocs),
		"phase.run_allocs":   float64(r.allocs - r.setupAllocs),
		"heap.setup_live_mb": liveMB,
		// Optimal guarantees nothing, so its Run skips the recovery check
		// and these spans stay at zero.
		"oracle.expected_s":   0,
		"mechanism.recover_s": 0,
		"oracle.check_s":      0,
	}
	simulatedWork(v, r)

	if cr.mech != pmemaccel.Optimal {
		var exp, rec *memimage.Image
		var diffs int
		v["oracle.expected_s"] = t.timed("expected", cr.name, root, func() { exp = r.sys.ExpectedDurable() })
		v["mechanism.recover_s"] = t.timed("recover", cr.name, root, func() { rec = r.sys.RecoveredDurable() })
		v["oracle.check_s"] = t.timed("check", cr.name, root, func() { diffs = len(pmemaccel.CheckDurable(exp, rec, 0)) })
		if diffs != 0 {
			err = fmt.Errorf("re-check of the drained system found %d differing words", diffs)
		}
	}
	var records int
	var genErr error
	v["workload.gen_s"] = t.timed("gen", cr.name, root, func() { records, genErr = generate(r.sys.Config) })
	t.spans[root-1].end = time.Now()
	v["workload.records"] = float64(records)
	v["workload.ns_per_record"] = ratio(v["workload.gen_s"]*1e9, float64(records))
	if err == nil && genErr != nil {
		err = fmt.Errorf("workload generation: %w", genErr)
	}
	if !cr.tally(digest, err) {
		return nil
	}

	for k, x := range v {
		cr.layer[k] = append(cr.layer[k], x)
	}
	if err := cr.addCPUProfile(cpuProf.Bytes(), t.out); err != nil {
		return err
	}
	for l, n := range after {
		cr.allocs[l] += n - before[l]
	}
	return nil
}

// simulatedWork records the deterministic per-rep counts from Result and
// the kernel, the denominators of the host-ns-per-unit metrics.
func simulatedWork(v map[string]float64, r rep) {
	res := r.res
	now := r.stepped + res.SkippedCycles
	var loads, stores, tcWrites, tcFallback, tcFull uint64
	for _, st := range res.PerCore {
		loads += st.Loads
		stores += st.Stores
	}
	for _, st := range res.TC {
		tcWrites += st.Writes
		tcFallback += st.FallbackWrites
		tcFull += st.FullRejects
	}
	instr := res.TotalInstructions()
	set := func(k string, x uint64) { v[k] = float64(x) }
	set("sim.stepped_cycles", r.stepped)
	v["sim.skipped_frac"] = ratio(float64(res.SkippedCycles), float64(now))
	set("cpu.instructions", instr)
	v["cpu.abort_rate"] = res.AbortRate()
	v["cpu.wasted_instr_frac"] = ratio(float64(res.TotalWastedInstructions()), float64(instr))
	// Demand loads and stores the cores issued into their L1s.
	set("cache.accesses", loads+stores)
	v["cache.llc_miss_rate"] = res.LLCMissRate
	v["cache.side_probe_hit_frac"] = ratio(float64(res.Hier.SidePathHits), float64(res.Hier.SidePathProbes))
	set("txcache.writes", tcWrites)
	v["txcache.fallback_frac"] = ratio(float64(tcFallback), float64(tcWrites+tcFallback))
	set("txcache.full_rejects", tcFull)
	set("arbiter.acquires", res.Arb.Acquires)
	v["arbiter.conflict_frac"] = ratio(float64(res.Arb.Conflicts), float64(res.Arb.Acquires))
	set("memctrl.nvm_reads", res.NVM.Reads)
	set("memctrl.nvm_writes", res.NVM.Writes)
	set("memctrl.dram_reads", res.DRAM.Reads)
	v["memctrl.nvm_write_queue_peak"] = float64(res.NVM.WriteQueuePeak)
	set("memctrl.requests", res.NVM.Reads+res.NVM.Writes+res.DRAM.Reads+res.DRAM.Writes)
	set("oracle.committed_tx", res.TotalTransactions())
}

// setupLiveMB is the heap a freshly built system keeps live: HeapAlloc
// after a GC that follows NewSystem, over the heap before it.
func setupLiveMB(c cell, seed uint64) (float64, error) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	base := int64(m.HeapAlloc)
	sys, err := pmemaccel.NewSystem(c.config(seed))
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(sys)
	return float64(int64(m.HeapAlloc)-base) / 1e6, nil
}

// generate produces every core's workload as NewSystem does, through the
// streaming generator, and drains it. It returns the record count.
func generate(cfg pmemaccel.Config) (int, error) {
	n := 0
	for c := 0; c < cfg.Cores; c++ {
		p := workload.DefaultParams(cfg.Benchmark, c, cfg.Cores, cfg.Seed, cfg.InitialSize, cfg.Ops)
		if cfg.ContentionPct > 0 {
			p.ContentionPct = cfg.ContentionPct
		}
		out, err := workload.NewStream(cfg.Benchmark, p)
		if err != nil {
			return n, err
		}
		rd := out.NewReader()
		for _, ok := rd.Next(); ok; _, ok = rd.Next() {
			n++
		}
		if err := out.StreamErr(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// addCPUProfile folds one rep's CPU profile into the cell's per-layer host
// time and writes it to the output directory.
func (cr *cellRun) addCPUProfile(b []byte, dir string) error {
	p, err := decodeProfile(b)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	byLayer, err := p.byLayer("cpu")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for l, ns := range byLayer {
		cr.cpu[l] += ns
	}
	name := fmt.Sprintf("%s.%d.cpu.pprof", cr.name, len(cr.layer["wall_s"]))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// allocsByLayer folds the process's cumulative allocs profile (objects
// allocated since start-up, as of the last GC) by layer.
func allocsByLayer() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return p.byLayer("alloc_objects")
}

// perLayerValues reduces the cell's traced reps to one value per
// per-layer metric: medians of per-rep values, shares of the folded
// profiles, and host ns per unit of simulated work.
func (cr *cellRun) perLayerValues() map[string]stat {
	out := map[string]stat{}
	for _, m := range perLayer {
		if xs, ok := cr.layer[m.name]; ok {
			out[m.name] = summarize(xs)
		}
	}
	n := len(cr.layer["wall_s"])
	derived := func(x float64) stat { return stat{median: x, q1: math.NaN(), q3: math.NaN(), n: n} }
	cpu, allocs := shares(cr.cpu), shares(cr.allocs)
	for _, l := range layers {
		out["host_share."+l] = derived(cpu[l])
		out["alloc_share."+l] = derived(allocs[l])
	}
	wall := median(cr.layer["wall_s"])
	for _, u := range perUnit {
		out[u.metric] = derived(ratio(cpu[u.layer]*wall*1e9, median(cr.layer[u.count])))
	}
	out["trace_overhead_frac"] = derived(ratio(wall, median(cr.e2e["wall_raw_s"])) - 1)
	return out
}

// shares normalizes per-layer totals to fractions of their sum.
func shares(totals map[string]int64) map[string]float64 {
	var sum int64
	for _, x := range totals {
		sum += x
	}
	out := map[string]float64{}
	for l, x := range totals {
		out[l] = ratio(float64(x), float64(sum))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracer keeps the traced run's spans in memory until write exports them.
type tracer struct {
	out   string // directory for profiles and spans
	spans []span
}

// span is one timed call; parent is the id of the enclosing span, 0 for a
// root. Ids start at 1.
type span struct {
	name, cell string
	parent     int
	start, end time.Time
}

func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, cell: cell, parent: parent, start: start, end: end})
	return len(t.spans)
}

// timed runs fn as a span and returns its duration in seconds.
func (t *tracer) timed(name, cell string, parent int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, cell, parent, start, end)
	return end.Sub(start).Seconds()
}

// write exports the spans as Chrome trace_event JSON (complete events,
// one thread per cell), which Perfetto and chrome://tracing open.
func (t *tracer) write(path string, cellNames []string) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	tid := map[string]int{}
	var events []any
	for i, name := range cellNames {
		tid[name] = i + 1
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": i + 1,
			"args": map[string]string{"name": name},
		})
	}
	var origin time.Time
	if len(t.spans) > 0 {
		origin = t.spans[0].start
	}
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid[s.cell],
			Args: args{ID: i + 1, Parent: s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
