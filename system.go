package pmemaccel

import (
	"fmt"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/sweep"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
	"pmemaccel/internal/workload"
)

// System is one assembled simulation: workloads generated, machine built,
// ready to run. Build with NewSystem; run with Run or step with
// RunToCycle for crash experiments.
type System struct {
	Config Config

	Kernel  *sim.Kernel
	Backend *memctrl.Backend
	Hier    *cache.Hierarchy
	Mech    mechanism.Mechanism
	Cores   []*cpu.Core
	Outputs []*workload.Output

	// Obs is the observer every component reports to — nil unless
	// Config.Obs switches on at least one consumer. Obs.Probe() is the
	// event ring (Config.Obs.Enabled): export it with WriteChromeTrace
	// and WriteMetricsCSV after (or during) a run. Obs.Metrics() is the
	// run-wide registry (Config.Obs.Metrics): live histograms fill
	// during the run, counters and gauges mirrored from the component
	// stats are added at collection, and the whole registry is
	// snapshotted into Result.Metrics. Obs.Flight() is the flight
	// recorder (Config.Obs.TxSample): its aggregate is collected into
	// Result.TxFlight.
	Obs *obs.Sink

	// Live is the volatile shadow image (newest store values); Durable
	// is the NVM content that survives a crash.
	Live    *memimage.Image
	Durable *memimage.Image

	// Arb is the shared-line ownership arbiter, nil unless the benchmark
	// is contended (workload.BankShared); its counters land in
	// Result.Arb.
	Arb *txcache.LineArbiter

	// Oracle is the commit-order recovery oracle: every core's generator
	// queues a transaction's write set on it as the core pulls the
	// TX_END, and the mechanism folds each into the expected image at its
	// durable instant.
	Oracle *trace.Oracle

	// producer generates every core's records ahead of the machine
	// during Run and RunToCycle.
	producer *trace.Producer

	// finished counts the leading cores that finished; coreFinished
	// advances it.
	finished int
}

// NewSystem generates the per-core workloads and assembles the machine.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{Config: cfg}

	// Workloads first: their base images seed the memory state. The
	// measured window is deferred — each output holds a generator the core
	// pulls records from during the run, so no record trace ever exists.
	// Each core builds from its own parameters alone, so the cores build
	// on GOMAXPROCS workers, every output lands at its core's index, and
	// the lowest failing core's error is the one reported.
	s.Outputs, err = sweep.Run(cfg.Cores, 0, cfg.buildCore, nil, nil)
	if err != nil {
		return nil, err
	}

	s.Kernel = sim.NewKernel()
	s.Kernel.SetFastForward(!cfg.NoFastForward)
	var probe *obs.Probe
	if cfg.Obs.Enabled {
		probe = obs.NewProbe(cfg.Obs.TraceCapacity)
	}
	var reg *metrics.Registry
	if cfg.Obs.Metrics {
		reg = metrics.NewRegistry()
	}
	s.Obs = obs.NewSink(probe, reg, cfg.Obs.TxSample)
	s.Backend, err = memctrl.NewBackend(s.Kernel, cfg.topology(), cfg.nvmConfig(), cfg.dramConfig(), s.Obs)
	if err != nil {
		return nil, fmt.Errorf("pmemaccel: %w", err)
	}

	// Memory images: the post-warmup state is architecturally live and
	// (for persistent words) already durable. Pre-size for the combined
	// base images; both grow from there as the run writes fresh words.
	var baseWords int
	for _, out := range s.Outputs {
		baseWords += out.BaseImage.Len()
	}
	s.Live = memimage.NewSized(baseWords)
	s.Durable = memimage.NewSized(baseWords)
	for _, out := range s.Outputs {
		s.Live.Merge(out.BaseImage, nil)
		s.Durable.Merge(out.BaseImage, memaddr.IsPersistent)
	}

	// The oracle starts from the durable state at cycle 0. Nothing is
	// pulled before the first cycle, so every write set reaches it.
	s.Oracle = trace.NewOracle(cfg.Cores, s.Durable.Snapshot())
	gens := make([]*trace.Generator, len(s.Outputs))
	for c, out := range s.Outputs {
		out.Stream.SetOracle(s.Oracle, c)
		gens[c] = out.Stream
	}
	s.producer = trace.NewProducer(gens)
	if cfg.Benchmark == workload.BankShared {
		s.Arb = txcache.NewLineArbiter(cfg.Cores)
	}
	env := &mechanism.Env{
		K:       s.Kernel,
		Cores:   cfg.Cores,
		Mem:     s.Backend,
		Live:    s.Live,
		Durable: s.Durable,
		TC:      cfg.tcConfig(),
		Obs:     s.Obs,
		Arb:     s.Arb,
		Oracle:  s.Oracle,
	}
	s.Mech = mechanism.New(cfg.Mechanism, env)
	s.Hier = cache.New(s.Kernel, cfg.cacheConfig(), s.Backend, s.Mech.Hooks(), cfg.Cores, s.Obs)
	s.Mech.Attach(s.Hier)

	for c := 0; c < cfg.Cores; c++ {
		rd := s.Mech.Rewrite(c, s.Outputs[c].NewReader())
		core := cpu.New(s.Kernel, c, cfg.MLP, s.Hier, s.Mech, rd,
			func(addr, value uint64) uint64 {
				old := s.Live.ReadWord(addr)
				s.Live.WriteWord(addr, value)
				return old
			}, s.coreFinished, s.Obs)
		s.Cores = append(s.Cores, core)
	}
	s.startSampler()
	return s, nil
}

// buildCore generates one core's workload and checks its base image,
// naming the core in its error.
//
// Address-space validation: the base images must classify into mapped
// spaces, so an unmapped address is a build-time error here rather than
// a mid-simulation fault. Record addresses are checked as they flow
// (trace.StreamValidator classifies every load and store), and a
// violation surfaces through Output.StreamErr after the run. Mechanism
// log regions are carved from the NVMLog space by construction.
func (c Config) buildCore(core int) (*workload.Output, error) {
	p := workload.DefaultParams(c.Benchmark, core, c.Cores, c.Seed, c.InitialSize, c.Ops)
	if c.Benchmark == workload.BankShared {
		if c.ContentionPct > 0 {
			p.ContentionPct = c.ContentionPct
		}
		if c.SharedAccounts > 0 {
			p.SharedAccounts = c.SharedAccounts
		}
	}
	out, err := workload.NewStream(c.Benchmark, p)
	if err == nil {
		err = validateBaseImage(out.BaseImage)
	}
	if err != nil {
		return nil, fmt.Errorf("pmemaccel: core %d: %w", core, err)
	}
	return out, nil
}

// validateBaseImage rejects a base image holding an address outside
// every mapped memory space, naming the lowest such address. The backend
// would report such an address as a run-time fault; catching it here
// turns a mid-run surprise into a build-time error. A page never
// straddles two spaces, so each page is classified once, by its base.
func validateBaseImage(img *memimage.Image) error {
	if addr, ok := img.First(func(base uint64) bool {
		return memaddr.Classify(base) == memaddr.SpaceInvalid
	}); ok {
		return fmt.Errorf("base image holds unmapped address %#x", addr)
	}
	return nil
}

// startSampler registers the time-series sources and the periodic
// kernel callback that samples them. No-op unless the probe is live and
// a sampling period is configured.
func (s *System) startSampler() {
	p := s.Obs.Probe()
	if p == nil || s.Config.Obs.SampleEvery == 0 {
		return
	}
	if tp, ok := s.Mech.(mechanism.TCIntrospector); ok {
		for c := 0; c < s.Config.Cores; c++ {
			p.AddSource(fmt.Sprintf("tc%d_occupancy", c), tp.TC(c).Occupancy)
		}
	}
	p.AddSource("llc_demand_queue", func() int { r, _ := s.Hier.QueueDepths(); return r })
	p.AddSource("llc_writeback_queue", func() int { _, w := s.Hier.QueueDepths(); return w })
	p.AddSource("llc_inflight_fills", s.Hier.InflightFills)
	s.Backend.AddQueueSources(p)
	p.StartSampling(s.Kernel, s.Config.Obs.SampleEvery)
}

// coreFinished runs when a core finishes its trace. A finished core never
// runs again, so it advances finished over the leading cores that have
// finished: O(cores) over a whole run.
func (s *System) coreFinished() {
	for s.finished < len(s.Cores) && s.Cores[s.finished].Finished() {
		s.finished++
	}
}

// coresFinished reports whether every core finished its trace: the
// kernel's stop test, asked once per executed Step.
func (s *System) coresFinished() bool { return s.finished == len(s.Cores) }

// quiesced reports whether every core finished and all persistence and
// memory machinery drained.
func (s *System) quiesced() bool {
	return s.coresFinished() && s.Mech.Drained() && s.Hier.Pending() == 0 && s.Backend.Quiescent()
}

// Run simulates to quiescence and collects the result.
func (s *System) Run() (*Result, error) {
	endOfTrace, err := s.simulate()
	if err != nil {
		return nil, err
	}
	// An unmapped-address fault is recorded sticky by the backend (the
	// request completes so the machine drains) and surfaced here; the
	// build-time address-space validation makes this unreachable for
	// generated workloads.
	if err := s.Backend.Fault(); err != nil {
		return nil, fmt.Errorf("pmemaccel: %w", err)
	}
	if err := s.StreamErr(); err != nil {
		return nil, err
	}
	return s.collect(endOfTrace), nil
}

// simulate runs the machine until every core finished its trace, then
// until the persistence machinery and memory queues drained, with the
// producer generating records ahead of the cores. It returns the cycle
// the last core finished at.
func (s *System) simulate() (uint64, error) {
	defer s.producer.Start()()
	endOfTrace, ok := s.Kernel.RunUntil(s.coresFinished, s.Config.MaxCycles)
	if !ok {
		return 0, fmt.Errorf("pmemaccel: run exceeded %d cycles (deadlock?)", s.Config.MaxCycles)
	}
	// Drain the persistence machinery and memory queues; this tail is
	// excluded from the performance window (cores are done) but keeps
	// functional state complete.
	if _, ok := s.Kernel.RunUntil(s.quiesced, s.Config.MaxCycles); !ok {
		return 0, fmt.Errorf("pmemaccel: post-run drain exceeded %d cycles", s.Config.MaxCycles)
	}
	return endOfTrace, nil
}

// StreamErr reports the first core whose generator failed (workload
// error, invariant violation, malformed record), or nil. A failed
// generator looks exhausted to its core, so a run that used it is
// truncated: Run checks this before collecting, and a caller that stops
// the run early with RunToCycle must check it before trusting the
// machine state.
func (s *System) StreamErr() error {
	for c, out := range s.Outputs {
		if err := out.StreamErr(); err != nil {
			return fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
	}
	return nil
}

// RunToCycle advances the simulation to the given absolute cycle (the
// crash-injection primitive). It reports whether the workload finished
// earlier. The producer stops before it returns, so the machine state is
// quiescent for a crash check.
func (s *System) RunToCycle(cycle uint64) bool {
	defer s.producer.Start()()
	done, _ := s.Kernel.RunUntil(s.quiesced, cycle)
	return done < cycle
}

// RecoveredDurable runs the mechanism's recovery over the current durable
// state — "crash now, reboot, recover".
func (s *System) RecoveredDurable() *memimage.Image {
	img, _ := s.Mech.Recover(s.Durable)
	return img
}

// ExpectedDurable builds the NVM image that recovery must produce at
// this instant: the durable image's NVM-space words (mechanism regions
// such as logs are outside the expectation domain) overlaid by the
// oracle's image, the base plus every durably committed write set in
// durable-commit order. It is a pure query, exact at every cycle.
func (s *System) ExpectedDurable() *memimage.Image {
	img := memimage.NewSized(s.Durable.Len())
	nvm := func(base uint64) bool { return memaddr.Classify(base) == memaddr.SpaceNVM }
	img.Merge(s.Durable, nvm)
	img.Merge(s.Oracle.Image(), nvm)
	return img
}

// CheckDurable compares a recovered image against an expected one over
// the NVM data space, returning up to max mismatches (max <= 0 means all)
// in ascending address order. Both directions count: lost committed
// writes and leaked uncommitted ones.
func CheckDurable(expected, recovered *memimage.Image, max int) []memimage.Diff {
	return expected.SpaceDiffs(recovered, memaddr.SpaceNVM, max)
}

// Run is the one-call entry point: build a system and run it to
// completion.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
