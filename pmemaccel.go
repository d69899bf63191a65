// Package pmemaccel is a cycle-level simulator of the persistent memory
// accelerator from "Leave the Cache Hierarchy Operation as It Is: A New
// Persistent Memory Accelerating Approach" (Lai, Zhao, Yang — DAC 2017).
//
// The package assembles a four-core system — out-of-order-approximating
// cores, a three-level cache hierarchy, hybrid DRAM+NVM main memory
// behind two DRAMSim2-like controllers, and per-core nonvolatile
// transaction caches — and runs the paper's five-benchmark suite under
// any of the four evaluated persistence mechanisms (Optimal, SP, TCache,
// Kiln). Results carry the metrics of the paper's Figures 6–10: IPC,
// transaction throughput, LLC miss rate, NVM write traffic and persistent
// load latency.
//
// Quick start:
//
//	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
//	res, err := pmemaccel.Run(cfg)
//	fmt.Println(res.IPC())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package pmemaccel

import (
	"fmt"
	"strings"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/hwcost"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/txcache"
	"pmemaccel/internal/workload"
)

// Config describes one simulation: the machine (Table 2), the benchmark
// (Table 3) and the persistence mechanism (§5.1).
type Config struct {
	// Cores is the core count: the machine-width knob. 0 selects
	// DefaultCores (Table 2: 4); anything up to memaddr.MaxCores (64)
	// builds a wider machine — per-core address carvings are fixed-size,
	// so a core's workload stream is identical at every machine width.
	Cores int
	// Seed drives every random choice in the run.
	Seed uint64

	Benchmark workload.Benchmark
	Mechanism Kind

	// InitialSize and Ops size the benchmark: prepopulated elements and
	// measured operations (transactions) per core. InitialSize 0 sizes
	// the persistent working set to twice the core's LLC share; Ops 0
	// selects 1000.
	InitialSize int
	Ops         int

	// Scale divides the cache and transaction-cache capacities by a
	// power of two, shrinking the machine for fast runs while keeping
	// capacity ratios. 1 reproduces Table 2 exactly. The transaction
	// cache does not scale: transaction footprints do not shrink with
	// the machine, and the TC is sized to transactions, not to the
	// hierarchy.
	Scale int

	// MLP bounds each core's outstanding independent loads: the
	// out-of-order window's memory-level parallelism. 0 selects 8.
	MLP int
	// NVMTech selects the nonvolatile technology timing model
	// (default STT-RAM, the paper's Table 2 choice).
	NVMTech NVMTech
	// NVMChannels and DRAMChannels set the number of address-interleaved
	// memory channels per space (0 = 1, the paper's Figure 1 machine).
	// Each channel is a full controller with its own banks and queues,
	// so channel count is the memory-level-parallelism scaling knob.
	NVMChannels  int
	DRAMChannels int
	// ChannelInterleaveBytes is the interleave granularity: consecutive
	// blocks of this many bytes rotate across a space's channels. Must
	// be a power of two of at least one cache line (0 = 4096).
	ChannelInterleaveBytes int
	// TCBytes is the per-core transaction cache capacity, a multiple of
	// the 64-byte line. 0 selects the Table 2 4 KB.
	TCBytes int
	// TCHighWaterFrac is the TC occupancy fraction that triggers the
	// copy-on-write fall-back. 0 selects 0.9.
	TCHighWaterFrac float64

	// ContentionPct sets the fraction of operations touching the
	// cross-core shared region for contended benchmarks
	// (workload.BankShared). 0 selects the workload default (0.5);
	// ignored by the core-private benchmarks.
	ContentionPct float64
	// SharedAccounts sets the contended benchmarks' shared-array length
	// in words. 0 selects the workload default (64). Smaller arrays mean
	// hotter lines and more aborts.
	SharedAccounts int

	// MaxCycles bounds the run (0 = default bound).
	MaxCycles uint64

	// NoFastForward is the tick-everything reference mode: no component
	// sleeps, so every component ticks every cycle and the kernel never
	// fast-forwards. Results are byte-identical either way (the
	// skip-equivalence tests enforce it); the switch exists for those
	// tests and for perf comparison.
	NoFastForward bool

	// Obs configures the cycle-level observability layer (off by
	// default: System.Obs is nil and every emit site is an untaken
	// branch).
	Obs ObsConfig
}

// ObsConfig picks the consumers of the observer sink (System.Obs): a
// bounded event trace (exported as Chrome trace_event JSON via
// System.Obs.Probe()) with an optional periodic time-series sampler
// (exported as CSV), the metrics registry, and the transaction flight
// recorder. Per-core cycle attribution is always collected: its counters
// live in cpu.Stats and cost one increment per cycle regardless.
type ObsConfig struct {
	// Enabled turns on the event trace (and the sampler, when
	// SampleEvery is set).
	Enabled bool
	// TraceCapacity bounds the event ring buffer (entries; 0 selects
	// the obs package default, 262144). Oldest events are overwritten.
	TraceCapacity int
	// SampleEvery is the sampling period in cycles (0 disables the
	// time-series sampler; it samples only when Enabled is set).
	SampleEvery uint64
	// Metrics turns on the run-wide metrics registry: streaming
	// log2-bucketed histograms of the sink's events (transaction latency,
	// commit wait, TC drain bursts, per-channel write-drain windows,
	// side-probe hit latency, per-line NVM wear), surfaced as
	// Result.Metrics and in the JSON export. Independent of Enabled —
	// the registry is cheap (a few histogram increments on events that
	// already happen) where the event trace is not. Off by default:
	// the sink's metrics are nil, every observation is a no-op, and
	// results are byte-identical to a run without it.
	Metrics bool
	// TxSample turns on the transaction flight recorder, sampling every
	// N-th transaction id per core (1 samples every transaction, 0 —
	// the default — disables the recorder entirely). Sampling is a pure
	// function of the transaction id, so the sampled set is identical
	// for every sweep layout. Each sampled
	// transaction is followed begin → commit → TC drain → WPQ → NVM
	// durability and reduced to an exact stage waterfall
	// (Result.TxFlight) plus KTxStage trace spans stitched by Chrome
	// flow events when Enabled is also set. Off, results are
	// byte-identical to a run without it.
	TxSample uint64
}

// Kind re-exports the mechanism identifier so API users need not import
// the internal package.
type Kind = mechanism.Kind

// The four evaluated persistence mechanisms.
const (
	Optimal = mechanism.Optimal
	SP      = mechanism.SP
	TCache  = mechanism.TCache
	Kiln    = mechanism.Kiln
)

// DefaultConfig returns a laptop-scale configuration (Scale 64) of the
// Table 2 machine running the given benchmark and mechanism. The working
// set is auto-sized (InitialSize 0) to several times the scaled LLC so
// steady-state miss and write-back behaviour emerges within the run.
func DefaultConfig(b workload.Benchmark, m Kind) Config {
	return Config{
		Seed:      1,
		Benchmark: b,
		Mechanism: m,
		Ops:       12_000,
		Scale:     64,
	}
}

// footprintFactor is how many times the per-core LLC share the auto-sized
// persistent working set occupies.
const footprintFactor = 2

// DefaultCores is the Table 2 machine width, selected when Config.Cores
// is zero.
const DefaultCores = 4

// machine fills the zero machine fields with the Table 2 values they
// select.
func (c Config) machine() Config {
	if c.Cores == 0 {
		c.Cores = DefaultCores
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MLP == 0 {
		c.MLP = 8
	}
	if c.TCBytes == 0 {
		c.TCBytes = 4 << 10
	}
	if c.TCHighWaterFrac == 0 {
		c.TCHighWaterFrac = 0.9
	}
	return c
}

// withDefaults validates and normalizes.
func (c Config) withDefaults() (Config, error) {
	c = c.machine()
	if c.InitialSize == 0 {
		perCore := c.cacheConfig().LLCSize / c.Cores
		c.InitialSize = workload.SizeForFootprint(c.Benchmark, footprintFactor*perCore)
	}
	if c.Ops == 0 {
		c.Ops = 1_000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Validate checks the configuration for values the zero-fill defaults
// would silently accept but that produce confusing downstream behaviour:
// a TC high-water fraction above 1, a TC capacity that is not a whole
// number of lines, a cache geometry with no power-of-two set count.
// NewSystem calls it via withDefaults; the command-line flags call it
// as they are parsed, so users get a descriptive error before a long
// run starts. Zero-valued fields are legal: they select defaults, and
// Validate checks the machine they select.
func (c Config) Validate() error {
	if c.Cores < 0 {
		return fmt.Errorf("pmemaccel: Cores = %d, must be positive", c.Cores)
	}
	if c.Cores > memaddr.MaxCores {
		return fmt.Errorf("pmemaccel: Cores = %d exceeds the %d-core address-map limit", c.Cores, memaddr.MaxCores)
	}
	if c.MLP < 0 {
		return fmt.Errorf("pmemaccel: MLP %d must be non-negative (0 selects 8)", c.MLP)
	}
	c = c.machine() // validate the machine the zero fields select
	switch c.Mechanism {
	case Optimal, SP, TCache, Kiln:
	default:
		return fmt.Errorf("pmemaccel: unknown Mechanism %d (want one of %v)", int(c.Mechanism), mechanism.All)
	}
	switch c.NVMTech {
	case STTRAM, PCM, XPoint:
	default:
		return fmt.Errorf("pmemaccel: unknown NVMTech %d (want one of %v)", int(c.NVMTech), NVMTechs)
	}
	// Range checks are written !(in range) so NaN fails them too.
	if !(c.ContentionPct >= 0 && c.ContentionPct <= 1) {
		return fmt.Errorf("pmemaccel: ContentionPct %g must be in [0, 1] (0 selects the workload default)", c.ContentionPct)
	}
	if c.SharedAccounts < 0 {
		return fmt.Errorf("pmemaccel: SharedAccounts %d must be non-negative (0 selects the workload default)", c.SharedAccounts)
	}
	if c.Ops < 0 || c.InitialSize < 0 {
		return fmt.Errorf("pmemaccel: Ops %d and InitialSize %d must be non-negative", c.Ops, c.InitialSize)
	}
	if c.Scale < 0 || (c.Scale > 0 && c.Scale&(c.Scale-1) != 0) {
		return fmt.Errorf("pmemaccel: Scale %d must be a positive power of two", c.Scale)
	}
	if !(c.TCHighWaterFrac >= 0 && c.TCHighWaterFrac <= 1) {
		return fmt.Errorf("pmemaccel: TCHighWaterFrac %g must be in [0, 1] (0 selects the default 0.9)", c.TCHighWaterFrac)
	}
	if err := c.cacheConfig().Validate(); err != nil {
		return fmt.Errorf("pmemaccel: Scale %d: %w", c.Scale, err)
	}
	if err := c.tcConfig().Validate(); err != nil {
		return fmt.Errorf("pmemaccel: transaction cache: %w", err)
	}
	if c.NVMChannels < 0 || c.DRAMChannels < 0 {
		return fmt.Errorf("pmemaccel: channel counts (NVM %d, DRAM %d) must be non-negative (0 selects 1)",
			c.NVMChannels, c.DRAMChannels)
	}
	if c.ChannelInterleaveBytes < 0 {
		return fmt.Errorf("pmemaccel: ChannelInterleaveBytes %d must be non-negative (0 selects 4096)",
			c.ChannelInterleaveBytes)
	}
	if err := c.topology().WithDefaults().Validate(); err != nil {
		return fmt.Errorf("pmemaccel: %w", err)
	}
	return nil
}

// topology builds the memory-channel layout from the configuration.
func (c Config) topology() memctrl.Topology {
	return memctrl.Topology{
		NVMChannels:     c.NVMChannels,
		DRAMChannels:    c.DRAMChannels,
		InterleaveBytes: uint64(c.ChannelInterleaveBytes),
	}
}

// cacheConfig builds the hierarchy geometry for the (scaled) machine.
// Private caches scale by at most 8 (shrinking an L1 below a few KB stops
// modelling a cache at all); the LLC scales by the full factor, since the
// LLC-to-working-set ratio is what drives miss-rate and write-back
// behaviour.
func (c Config) cacheConfig() cache.Config {
	private := c.Scale
	if private > 8 {
		private = 8
	}
	cfg := cache.Config{
		L1Size: 32 << 10 / private, L1Ways: 4,
		L2Size: 256 << 10 / private, L2Ways: 8,
		LLCSize: 64 << 20 / c.Scale, LLCWays: 16,
	}
	if c.Mechanism == Kiln {
		// Kiln's LLC is STT-RAM: writes are slow (~20 ns against the 10 ns SRAM-like read),
		// so commit-flush bursts block demand traffic (the §5.2
		// "bursts of traffic in the cache hierarchy").
		cfg.LLCWriteOccupancy = 8
	}
	return cfg
}

// HardwareCost returns the Table 1 cost model of the machine a valid
// configuration selects.
func (c Config) HardwareCost() hwcost.Config {
	c = c.machine()
	cc := c.cacheConfig()
	return hwcost.Config{Cores: c.Cores, TCBytes: c.TCBytes,
		L1Bytes: cc.L1Size, L2Bytes: cc.L2Size, LLCBytes: cc.LLCSize}
}

// MachineTable renders Table 2 for the machine a valid configuration
// selects, from the builders NewSystem uses.
func (c Config) MachineTable() string {
	c = c.machine()
	cc, tc, topo := c.cacheConfig(), c.tcConfig(), c.topology().WithDefaults()
	nvm, dram := c.nvmConfig().WithDefaults(), c.dramConfig().WithDefaults()
	var b strings.Builder
	row := func(name, format string, args ...any) {
		fmt.Fprintf(&b, "  %-18s %s\n", name, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(&b, "Table 2: Machine Configuration (Scale %d; the paper's machine is Scale 1)\n", c.Scale)
	row("CPU", "%d cores, 2 GHz, %d-issue, %d-entry store buffer, MLP window %d",
		c.Cores, cpu.IssueWidth, cpu.StoreBuffer, c.MLP)
	row("L1 I/D", "Private, %s/core, %s, %d-way", byteSize(cc.L1Size), latency(cache.L1Latency), cc.L1Ways)
	row("L2", "Private, %s/core, %s, %d-way", byteSize(cc.L2Size), latency(cache.L2Latency), cc.L2Ways)
	row("L3 (LLC)", "Shared, %s, %s, %d-way", byteSize(cc.LLCSize), latency(cache.LLCLatency), cc.LLCWays)
	row("Transaction cache", "Private, %s/core (%d entries), fully-assoc CAM FIFO, fall-back at %g%% full;",
		byteSize(tc.SizeBytes), tc.Entries(), tc.HighWaterFrac*100)
	row("", "access not modelled (a TC write costs no cycles)")
	row("Memory controllers", "%d/%d-entry read/write queues; read-first, write drain from %d down to %d queued writes",
		nvm.ReadWindow, nvm.WriteWindow, nvm.DrainHigh, nvm.DrainLow)
	row("NVM ("+c.NVMTech.String()+")", "%d channel(s) x %d banks, %s read, %s write (row miss)",
		topo.NVMChannels, nvm.Banks, latency(nvm.ReadMiss), latency(nvm.WriteMiss))
	row("DRAM (DDR3)", "%d channel(s) x %d banks, %s read, %s write (row miss)",
		topo.DRAMChannels, dram.Banks, latency(dram.ReadMiss), latency(dram.WriteMiss))
	if topo.NVMChannels > 1 || topo.DRAMChannels > 1 {
		row("Interleave", "%s blocks rotate across a space's channels", byteSize(int(topo.InterleaveBytes)))
	}
	return b.String()
}

// latency renders a cycle count at the 2 GHz clock.
func latency(cycles uint64) string {
	return fmt.Sprintf("%g ns (%d cy)", float64(cycles)/2, cycles)
}

// byteSize renders a capacity in the largest whole unit.
func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%d KB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

// tcConfig builds the per-core transaction cache configuration.
func (c Config) tcConfig() txcache.Config {
	return txcache.Config{SizeBytes: c.TCBytes, HighWaterFrac: c.TCHighWaterFrac}
}

// NVMTech selects the nonvolatile main-memory technology. The paper's
// machine uses STT-RAM (Table 2); the introduction names PCM, RRAM and
// 3D XPoint as the emerging alternatives, so the simulator models their
// timing classes for sensitivity studies (cmd/ablation, the NVMTech
// sweep).
type NVMTech int

const (
	// STTRAM is the Table 2 technology: 65 ns read, 76 ns write.
	STTRAM NVMTech = iota
	// PCM is phase-change memory: similar reads, much slower writes.
	PCM
	// XPoint approximates 3D XPoint: slower reads, moderate writes.
	XPoint
)

// String names the technology.
func (t NVMTech) String() string {
	switch t {
	case STTRAM:
		return "sttram"
	case PCM:
		return "pcm"
	case XPoint:
		return "3dxpoint"
	default:
		return fmt.Sprintf("nvmtech(%d)", int(t))
	}
}

// NVMTechs lists the modelled technologies.
var NVMTechs = []NVMTech{STTRAM, PCM, XPoint}

// nvmConfig is the NVM channel: 4 ranks x 8 banks with the selected
// technology's array timings at 2 GHz.
func (c Config) nvmConfig() memctrl.Config {
	cfg := memctrl.Config{
		Name: "NVM", Banks: 32, RowBytes: 8192,
		ReadWindow: 8, WriteWindow: 64,
	}
	switch c.NVMTech {
	case PCM:
		// ~60 ns reads, ~300 ns SET-limited writes.
		cfg.ReadHit, cfg.ReadMiss = 40, 120
		cfg.WriteHit, cfg.WriteMiss = 500, 600
	case XPoint:
		// ~100 ns reads, ~150 ns writes.
		cfg.ReadHit, cfg.ReadMiss = 60, 200
		cfg.WriteHit, cfg.WriteMiss = 240, 300
	default: // STT-RAM, Table 2: 65 ns read, 76 ns write.
		cfg.ReadHit, cfg.ReadMiss = 40, 130
		cfg.WriteHit, cfg.WriteMiss = 120, 152
	}
	return cfg
}

// dramConfig is the DDR3 channel of Table 2.
func (c Config) dramConfig() memctrl.Config {
	return memctrl.Config{
		Name: "DRAM", Banks: 32, RowBytes: 8192,
		ReadHit: 27, ReadMiss: 80, WriteHit: 27, WriteMiss: 80,
		ReadWindow: 8, WriteWindow: 64,
	}
}
