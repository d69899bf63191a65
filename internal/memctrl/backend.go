package memctrl

import (
	"fmt"
	"strings"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/obs/txflight"
	"pmemaccel/internal/sim"
)

// Topology describes the multi-channel layout of the hybrid main memory:
// how many address-interleaved channels back each space (NVM and DRAM
// independently) and at what granularity consecutive blocks rotate across
// them. The default — one channel per space, 4 KB interleave — is the
// paper's Figure 1 machine.
type Topology struct {
	// NVMChannels and DRAMChannels are the per-space channel counts.
	// Each channel is a full Controller (its own banks, queues and
	// scheduler); adding channels adds memory-level parallelism without
	// changing per-channel timing.
	NVMChannels  int
	DRAMChannels int
	// InterleaveBytes is the interleave granularity: block i of a space
	// (blocks of this many bytes) lives on channel i mod channels. Must
	// be a power of two no smaller than the cache-line size.
	InterleaveBytes uint64
}

// WithDefaults fills zero fields with the single-channel paper topology.
func (t Topology) WithDefaults() Topology {
	if t.NVMChannels == 0 {
		t.NVMChannels = 1
	}
	if t.DRAMChannels == 0 {
		t.DRAMChannels = 1
	}
	if t.InterleaveBytes == 0 {
		t.InterleaveBytes = 4096
	}
	return t
}

// Validate rejects topologies the defaults would silently accept but that
// misbehave downstream. Call it on the defaulted topology.
func (t Topology) Validate() error {
	if t.NVMChannels <= 0 || t.DRAMChannels <= 0 {
		return fmt.Errorf("memctrl: channel counts (NVM %d, DRAM %d) must be positive",
			t.NVMChannels, t.DRAMChannels)
	}
	if t.InterleaveBytes < memaddr.LineSize {
		return fmt.Errorf("memctrl: interleave granularity %d below the %d-byte cache line — one line would straddle channels",
			t.InterleaveBytes, memaddr.LineSize)
	}
	if t.InterleaveBytes&(t.InterleaveBytes-1) != 0 {
		return fmt.Errorf("memctrl: interleave granularity %d must be a power of two", t.InterleaveBytes)
	}
	return nil
}

// shift returns log2(InterleaveBytes) for the channel-index computation.
func (t Topology) shift() uint {
	s := uint(0)
	for b := t.InterleaveBytes; b > 1; b >>= 1 {
		s++
	}
	return s
}

// Backend is the multi-channel hybrid main memory of Figure 1, built from
// a Topology: N address-interleaved NVM channels and M DRAM channels,
// each an independent Controller. It satisfies the cache hierarchy's
// Memory interface and the mechanism layer's port interface.
//
// A request for an address outside every mapped space does not panic
// mid-simulation: the backend records a sticky fault (first one wins),
// completes the request so the simulation can drain, and surfaces the
// fault through Fault() — which System.Run checks after every run.
type Backend struct {
	k     *sim.Kernel
	topo  Topology
	shift uint
	nvm   []*Controller
	dram  []*Controller
	fault error
}

// NewBackend builds the topology's controllers, registered with k in
// channel order (NVM channels first, then DRAM — the same kernel tick
// order as the original two-controller router for the 1x1 topology).
// nvmCfg and dramCfg configure every channel of their space; with more
// than one channel the per-channel name gains the channel index
// ("NVM0", "NVM1", ...).
func NewBackend(k *sim.Kernel, topo Topology, nvmCfg, dramCfg Config) (*Backend, error) {
	topo = topo.WithDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{k: k, topo: topo, shift: topo.shift()}
	b.nvm = buildChannels(k, nvmCfg, topo.NVMChannels)
	b.dram = buildChannels(k, dramCfg, topo.DRAMChannels)
	return b, nil
}

func buildChannels(k *sim.Kernel, cfg Config, n int) []*Controller {
	chans := make([]*Controller, n)
	for i := range chans {
		c := cfg
		if n > 1 {
			c.Name = fmt.Sprintf("%s%d", cfg.Name, i)
		}
		chans[i] = New(k, c)
	}
	return chans
}

// Topology returns the (defaulted) topology.
func (b *Backend) Topology() Topology { return b.topo }

// NVM returns the NVM channels (index order = interleave order).
func (b *Backend) NVM() []*Controller { return b.nvm }

// DRAM returns the DRAM channels.
func (b *Backend) DRAM() []*Controller { return b.dram }

// channelIndex maps a space-relative offset to its channel.
func (b *Backend) channelIndex(off uint64, n int) int {
	if n == 1 {
		return 0
	}
	return int((off >> b.shift) % uint64(n))
}

// For returns the controller owning addr, or a descriptive error for an
// address outside every mapped space. Log-region addresses interleave
// across the NVM channels like data-region ones.
func (b *Backend) For(addr uint64) (*Controller, error) {
	c, _, err := b.forWithID(addr)
	return c, err
}

// forWithID resolves addr to its controller plus the global channel id
// used by SetProbe's track numbering: NVM channels 0..N-1, DRAM
// channels N..N+M-1.
func (b *Backend) forWithID(addr uint64) (*Controller, int, error) {
	switch memaddr.Classify(addr) {
	case memaddr.SpaceDRAM:
		i := b.channelIndex(addr-memaddr.DRAMBase, len(b.dram))
		return b.dram[i], len(b.nvm) + i, nil
	case memaddr.SpaceNVM:
		i := b.channelIndex(addr-memaddr.NVMBase, len(b.nvm))
		return b.nvm[i], i, nil
	case memaddr.SpaceNVMLog:
		i := b.channelIndex(addr-memaddr.NVMLogBase, len(b.nvm))
		return b.nvm[i], i, nil
	default:
		return nil, -1, fmt.Errorf("memctrl: request for unmapped address %#x (mapped: DRAM [%#x,...), NVM [%#x,...), NVMLog [%#x,...))",
			addr, memaddr.DRAMBase, memaddr.NVMBase, memaddr.NVMLogBase)
	}
}

// recordFault keeps the first unmapped-address error and completes the
// request's callback on the next cycle, so the simulation drains instead
// of deadlocking; the fault is surfaced after the run via Fault().
func (b *Backend) recordFault(err error, done sim.Event) {
	if b.fault == nil {
		b.fault = err
	}
	if done.Fn != nil {
		b.k.Schedule(1, done)
	}
}

// Fault returns the first unmapped-address error a request hit, or nil.
func (b *Backend) Fault() error { return b.fault }

// Read enqueues a line read on the owning channel.
func (b *Backend) Read(lineAddr uint64, done sim.Event) {
	c, err := b.For(lineAddr)
	if err != nil {
		b.recordFault(err, done)
		return
	}
	c.Read(lineAddr, done)
}

// Write enqueues a line write on the owning channel.
func (b *Backend) Write(lineAddr uint64, apply, onDurable sim.Event) {
	c, err := b.For(lineAddr)
	if err != nil {
		b.recordFault(err, onDurable)
		return
	}
	c.Write(lineAddr, apply, onDurable)
}

// WriteTracked enqueues a line write like Write, additionally marking
// the flight-recorder write w (may be nil) with its service-start cycle
// and the owning channel's global id (NVM 0..N-1, DRAM N..N+M-1, the
// SetProbe track numbering). Faulted requests never mark w — the flight
// recorder treats the missing checkpoint defensively.
func (b *Backend) WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *txflight.Write) {
	c, id, err := b.forWithID(lineAddr)
	if err != nil {
		b.recordFault(err, onDurable)
		return
	}
	if w == nil {
		c.Write(lineAddr, apply, onDurable)
		return
	}
	c.WriteTracked(lineAddr, apply, onDurable, w, id)
}

// PendingNVMWrites reports queued, unissued writes summed across the NVM
// channels — the quantity the SP mechanism's pcommit stall drains to
// zero.
func (b *Backend) PendingNVMWrites() int {
	n := 0
	for _, c := range b.nvm {
		n += c.PendingWrites()
	}
	return n
}

// Quiescent reports whether every channel is idle.
func (b *Backend) Quiescent() bool {
	for _, c := range b.nvm {
		if !c.Quiescent() {
			return false
		}
	}
	for _, c := range b.dram {
		if !c.Quiescent() {
			return false
		}
	}
	return true
}

// SetProbe attaches the observability recorder to every channel (nil
// disables probing). Channel IDs label the trace tracks: NVM channels
// take 0..N-1, DRAM channels N..N+M-1 — for the 1x1 topology that is the
// original 0=NVM, 1=DRAM assignment.
func (b *Backend) SetProbe(p *obs.Probe) {
	for i, c := range b.nvm {
		c.SetProbe(p, i)
	}
	for i, c := range b.dram {
		c.SetProbe(p, len(b.nvm)+i)
	}
}

// SetMetrics wires every channel's write-drain histograms into the
// registry, one pair per channel keyed by the channel's (lowercased)
// name: "wpq_drain_cycles_nvm0", "wpq_drain_writes_nvm0", ... — for the
// 1x1 topology simply "..._nvm" and "..._dram". A nil registry hands
// the controllers nil histograms, the disabled path.
func (b *Backend) SetMetrics(reg *metrics.Registry) {
	for _, c := range append(append([]*Controller{}, b.nvm...), b.dram...) {
		name := strings.ToLower(c.cfg.Name)
		c.SetMetrics(
			reg.Histogram("wpq_drain_cycles_"+name),
			reg.Histogram("wpq_drain_writes_"+name),
		)
	}
}

// AddQueueSources registers every channel's read/write queue depths with
// the probe's time-series sampler, one source pair per channel
// ("nvm0_read_queue", "nvm0_write_queue", ..., "dram0_read_queue", ...),
// so exported metrics CSVs distinguish channels.
func (b *Backend) AddQueueSources(p *obs.Probe) {
	for i, c := range b.nvm {
		c := c
		p.AddSource(fmt.Sprintf("nvm%d_read_queue", i), c.PendingReads)
		p.AddSource(fmt.Sprintf("nvm%d_write_queue", i), c.PendingWrites)
	}
	for i, c := range b.dram {
		c := c
		p.AddSource(fmt.Sprintf("dram%d_read_queue", i), c.PendingReads)
		p.AddSource(fmt.Sprintf("dram%d_write_queue", i), c.PendingWrites)
	}
}

// NVMStats returns the NVM-space statistics aggregated across channels
// (identical to the single channel's stats for a 1-channel space).
func (b *Backend) NVMStats() Stats { return aggregateStats(b.nvm) }

// DRAMStats returns the DRAM-space statistics aggregated across channels.
func (b *Backend) DRAMStats() Stats { return aggregateStats(b.dram) }

// NVMChannelStats returns one Stats per NVM channel, in interleave order.
func (b *Backend) NVMChannelStats() []Stats { return channelStats(b.nvm) }

// DRAMChannelStats returns one Stats per DRAM channel.
func (b *Backend) DRAMChannelStats() []Stats { return channelStats(b.dram) }

func channelStats(chans []*Controller) []Stats {
	out := make([]Stats, len(chans))
	for i, c := range chans {
		out[i] = c.Stats()
	}
	return out
}

// aggregateStats sums the additive counters and takes the maximum of the
// peak/max ones: WriteQueuePeak and ReadLatencyMax are per-channel highs,
// so the aggregate reports the worst channel.
func aggregateStats(chans []*Controller) Stats {
	var agg Stats
	for _, c := range chans {
		s := c.Stats()
		agg.Reads += s.Reads
		agg.Writes += s.Writes
		agg.RowHits += s.RowHits
		agg.RowMisses += s.RowMisses
		agg.ReadLatencySum += s.ReadLatencySum
		agg.DrainEntries += s.DrainEntries
		agg.BusyCycles += s.BusyCycles
		if s.ReadLatencyMax > agg.ReadLatencyMax {
			agg.ReadLatencyMax = s.ReadLatencyMax
		}
		if s.WriteQueuePeak > agg.WriteQueuePeak {
			agg.WriteQueuePeak = s.WriteQueuePeak
		}
	}
	return agg
}

// NVMWear returns the per-line write-count profile merged across the NVM
// channels (the channel's own tracker when the space has one channel).
func (b *Backend) NVMWear() *Wear {
	if len(b.nvm) == 1 {
		return b.nvm[0].Wear()
	}
	ws := make([]*Wear, len(b.nvm))
	for i, c := range b.nvm {
		ws[i] = c.Wear()
	}
	return MergeWear(ws...)
}
