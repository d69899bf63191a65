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
	"pmemaccel/internal/obs/txflight"
	"pmemaccel/internal/sim"
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

	// Probe is the observability recorder — nil unless Config.Obs is
	// enabled. Export its contents with Probe.WriteChromeTrace and
	// Probe.WriteMetricsCSV after (or during) a run.
	Probe *obs.Probe

	// Metrics is the run-wide metrics registry — nil unless
	// Config.Obs.Metrics is set. Live histograms fill during the run;
	// counters and gauges mirrored from the component stats are added at
	// collection time, and the whole registry is snapshotted into
	// Result.Metrics.
	Metrics *metrics.Registry

	// Flight is the transaction flight recorder — nil unless
	// Config.Obs.TxSample > 0. Its aggregate is collected into
	// Result.TxFlight; its KTxStage spans land in Probe (when enabled).
	Flight *txflight.Recorder

	// Live is the volatile shadow image (newest store values); Durable
	// is the NVM content that survives a crash.
	Live    *memimage.Image
	Durable *memimage.Image

	// Arb is the shared-line ownership arbiter and Commits the global
	// durable-commit log — both nil unless some core runs a contended
	// benchmark (workload.BankShared). Commits orders the serialization
	// oracle; Arb's counters land in Result.Arb.
	Arb     *txcache.LineArbiter
	Commits *mechanism.CommitLog
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
	shared := false
	for c := 0; c < cfg.Cores; c++ {
		bench := cfg.benchmarkFor(c)
		p := workload.DefaultParams(bench, c, cfg.Cores, cfg.Seed, cfg.InitialSize, cfg.Ops)
		if bench == workload.BankShared {
			shared = true
			if cfg.ContentionPct > 0 {
				p.ContentionPct = cfg.ContentionPct
			}
			if cfg.SharedAccounts > 0 {
				p.SharedAccounts = cfg.SharedAccounts
			}
		}
		out, err := workload.NewStream(bench, p)
		if err != nil {
			return nil, fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
		// Mid-run crash checks (RunToCycle, then ExpectedDurable) fold
		// each core's committed prefix, so the history is on until Run
		// decides it is not needed. Nothing is generated before the first
		// cycle, so this costs nothing up front.
		out.Recorder.SetRetainTxHistory(true)
		s.Outputs = append(s.Outputs, out)
	}

	s.Kernel = sim.NewKernel()
	s.Kernel.SetFastForward(!cfg.NoFastForward)
	if cfg.Obs.Enabled {
		s.Probe = obs.NewProbe(cfg.Obs.TraceCapacity)
	}
	if cfg.Obs.Metrics {
		s.Metrics = metrics.NewRegistry()
	}
	if cfg.Obs.TxSample > 0 {
		s.Flight = txflight.New(cfg.Obs.TxSample, s.Probe)
	}
	s.Backend, err = memctrl.NewBackend(s.Kernel, cfg.topology(), cfg.nvmConfig(), cfg.dramConfig())
	if err != nil {
		return nil, fmt.Errorf("pmemaccel: %w", err)
	}
	s.Backend.SetProbe(s.Probe)
	s.Backend.SetMetrics(s.Metrics)

	// Address-space validation: the base images must classify into
	// mapped spaces, so an unmapped address is a build-time error here
	// rather than a mid-simulation fault. Record addresses are checked as
	// they flow (trace.StreamValidator classifies every load and store),
	// and a violation surfaces through Output.StreamErr after the run.
	// Mechanism log regions are carved from the NVMLog space by
	// construction.
	for c, out := range s.Outputs {
		if err := validateBaseImage(out.BaseImage); err != nil {
			return nil, fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
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
		out.BaseImage.ForEach(func(addr, v uint64) {
			s.Live.WriteWord(addr, v)
			if memaddr.IsPersistent(addr) {
				s.Durable.WriteWord(addr, v)
			}
		})
	}

	if shared {
		s.Arb = txcache.NewLineArbiter(cfg.Cores)
		s.Commits = &mechanism.CommitLog{}
	}
	env := &mechanism.Env{
		K:       s.Kernel,
		Cores:   cfg.Cores,
		Mem:     s.Backend,
		Live:    s.Live,
		Durable: s.Durable,
		TC:      cfg.tcConfig(),
		Probe:   s.Probe,
		Metrics: s.Metrics,
		Flight:  s.Flight,
		Arb:     s.Arb,
		Commits: s.Commits,
	}
	s.Mech = mechanism.New(cfg.Mechanism, env)
	s.Hier = cache.New(s.Kernel, cfg.cacheConfig(), s.Backend, s.Mech.Hooks(), cfg.Cores)
	s.Hier.SetProbe(s.Probe)
	s.Hier.SetMetrics(s.Metrics.Histogram("side_probe_hit_latency_cycles"))
	s.Mech.Attach(s.Hier)

	for c := 0; c < cfg.Cores; c++ {
		rd := s.Mech.Rewrite(c, s.Outputs[c].NewReader())
		core := cpu.New(s.Kernel, c, cfg.CPU, s.Hier, s.Mech, rd,
			func(addr, value uint64) { s.Live.WriteWord(addr, value) })
		core.SetProbe(s.Probe)
		core.SetFlight(s.Flight)
		// Transaction latency and commit-wait distributions are
		// run-wide: every core observes into the same pair of
		// histograms (nil when metrics are off).
		core.SetMetrics(
			s.Metrics.Histogram("tx_latency_cycles"),
			s.Metrics.Histogram("commit_wait_cycles"),
		)
		s.Cores = append(s.Cores, core)
	}
	s.startSampler()
	return s, nil
}

// validateBaseImage rejects a base image holding an address outside
// every mapped memory space. The backend would report such an address as
// a run-time fault; catching it here turns a mid-run surprise into a
// build-time error.
func validateBaseImage(img *memimage.Image) error {
	var err error
	img.ForEach(func(addr, _ uint64) {
		if err == nil && memaddr.Classify(addr) == memaddr.SpaceInvalid {
			err = fmt.Errorf("base image holds unmapped address %#x", addr)
		}
	})
	return err
}

// startSampler registers the time-series sources and the periodic
// kernel callback that samples them. No-op unless the probe is live and
// a sampling period is configured.
func (s *System) startSampler() {
	if s.Probe == nil || s.Config.Obs.SampleEvery == 0 {
		return
	}
	if tp, ok := s.Mech.(mechanism.TCIntrospector); ok {
		for c := 0; c < s.Config.Cores; c++ {
			s.Probe.AddSource(fmt.Sprintf("tc%d_occupancy", c), tp.TC(c).Occupancy)
		}
	}
	s.Probe.AddSource("llc_demand_queue", func() int { r, _ := s.Hier.QueueDepths(); return r })
	s.Probe.AddSource("llc_writeback_queue", func() int { _, w := s.Hier.QueueDepths(); return w })
	s.Probe.AddSource("llc_inflight_fills", s.Hier.InflightFills)
	s.Backend.AddQueueSources(s.Probe)
	s.Probe.StartSampling(s.Kernel, s.Config.Obs.SampleEvery)
}

// quiesced reports whether every core finished and all persistence and
// memory machinery drained.
func (s *System) quiesced() bool {
	for _, c := range s.Cores {
		if !c.Finished() {
			return false
		}
	}
	return s.Mech.Drained() && s.Hier.Pending() == 0 && s.Backend.Quiescent()
}

// Run simulates to quiescence and collects the result. Core-private
// workloads drop their transaction history first: Run always ends at
// quiescence, where ExpectedDurable's fold of the incremental final
// image equals the per-prefix fold, so memory stays O(structure). The
// shared-mode commit-order oracle keeps the history it needs.
func (s *System) Run() (*Result, error) {
	if s.Commits == nil {
		for _, out := range s.Outputs {
			out.Recorder.SetRetainTxHistory(false)
		}
	}
	endOfTrace, ok := s.Kernel.RunUntil(func() bool {
		for _, c := range s.Cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}, s.Config.MaxCycles)
	if !ok {
		return nil, fmt.Errorf("pmemaccel: run exceeded %d cycles (deadlock?)", s.Config.MaxCycles)
	}
	// Drain the persistence machinery and memory queues; this tail is
	// excluded from the performance window (cores are done) but keeps
	// functional state complete.
	if _, ok := s.Kernel.RunUntil(s.quiesced, s.Config.MaxCycles); !ok {
		return nil, fmt.Errorf("pmemaccel: post-run drain exceeded %d cycles", s.Config.MaxCycles)
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
// earlier.
func (s *System) RunToCycle(cycle uint64) bool {
	done, _ := s.Kernel.RunUntil(s.quiesced, cycle)
	return done < cycle
}

// RecoveredDurable runs the mechanism's recovery over the current durable
// state — "crash now, reboot, recover".
func (s *System) RecoveredDurable() *memimage.Image {
	return s.Mech.Recover(s.Durable)
}

// ExpectedDurable builds the NVM image that recovery must produce given
// the per-core durably-committed transaction counts at this instant:
// the warmed-up base plus each core's committed prefix of write sets.
func (s *System) ExpectedDurable() *memimage.Image {
	img := memimage.NewSized(s.Durable.Len())
	s.Durable.ForEach(func(addr, v uint64) {
		// Base persistent words only: mechanism-specific regions
		// (logs) are excluded from the expectation domain.
		if memaddr.Classify(addr) == memaddr.SpaceNVM {
			img.WriteWord(addr, v)
		}
	})
	// Overwrite with base values (durable may have advanced past base).
	for _, out := range s.Outputs {
		out.BaseImage.ForEach(func(addr, v uint64) {
			if memaddr.Classify(addr) == memaddr.SpaceNVM {
				img.WriteWord(addr, v)
			}
		})
	}
	if s.Commits != nil {
		// Shared mode: committed write sets fold in the global durable
		// commit order the machine actually produced — cross-core writes
		// to the shared region serialize in exactly that order, so a
		// per-core fold would be wrong whenever two cores touched the
		// same word. Exact at quiescence (every committed transaction is
		// durably committed once the machine drains); mid-run
		// crash-prefix checking is a core-private-workload capability.
		committed := make([][]trace.TxRecord, len(s.Outputs))
		for c, out := range s.Outputs {
			committed[c] = out.Recorder.Committed()
		}
		idx := make([]int, len(s.Outputs))
		for _, c := range s.Commits.Order {
			if idx[c] >= len(committed[c]) {
				continue
			}
			for _, w := range committed[c][idx[c]].Writes {
				img.WriteWord(w.Addr, w.Value)
			}
			idx[c]++
		}
		return img
	}
	for c, out := range s.Outputs {
		if !out.Recorder.RetainsTxHistory() {
			// Run dropped the per-transaction history — only the
			// incremental final image (base plus every committed write
			// set) remains. That equals the per-prefix expectation exactly
			// when every committed transaction is durably committed, which
			// holds once Run drains the machine.
			out.FinalImage.ForEach(func(addr, v uint64) {
				if memaddr.Classify(addr) == memaddr.SpaceNVM {
					img.WriteWord(addr, v)
				}
			})
			continue
		}
		n := int(s.Mech.DurablyCommitted(c))
		committed := out.Recorder.Committed()
		if n > len(committed) {
			n = len(committed)
		}
		for _, tx := range committed[:n] {
			for _, w := range tx.Writes {
				img.WriteWord(w.Addr, w.Value)
			}
		}
	}
	return img
}

// CheckDurable compares a recovered image against an expected one over
// the NVM data space, returning up to max mismatches (both directions:
// lost committed writes and leaked uncommitted ones).
func CheckDurable(expected, recovered *memimage.Image, max int) []memimage.Diff {
	var diffs []memimage.Diff
	seen := map[uint64]bool{}
	expected.ForEach(func(addr, v uint64) {
		if memaddr.Classify(addr) != memaddr.SpaceNVM {
			return
		}
		if got := recovered.ReadWord(addr); got != v {
			diffs = append(diffs, memimage.Diff{Addr: addr, A: v, B: got})
			seen[addr] = true
		}
	})
	recovered.ForEach(func(addr, v uint64) {
		if memaddr.Classify(addr) != memaddr.SpaceNVM || v == 0 || seen[addr] {
			return
		}
		if expected.ReadWord(addr) != v {
			diffs = append(diffs, memimage.Diff{Addr: addr, A: expected.ReadWord(addr), B: v})
		}
	})
	if max > 0 && len(diffs) > max {
		diffs = diffs[:max]
	}
	return diffs
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
