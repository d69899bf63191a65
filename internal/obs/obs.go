// Package obs is the cycle-level observability layer: a probe/recorder
// threaded through the simulation kernel, cores, cache hierarchy,
// persistence mechanisms, transaction caches and memory controllers.
//
// It has three pillars:
//
//  1. a span/event trace — a bounded ring buffer of Events capturing
//     transaction lifecycles, TC drain bursts, LLC persistent-line drops
//     and side-path probes, and memory-controller write-drain windows,
//     exported as Chrome trace_event JSON (chrometrace.go) loadable in
//     Perfetto or chrome://tracing;
//  2. a periodic sampler — kernel-callback-driven time series of named
//     integer sources (TC occupancy, queue depths), exported as CSV;
//  3. per-core cycle attribution — accumulated in cpu.Stats (the cpu
//     package owns the counters; obs defines nothing there), surfaced
//     through Result.
//
// The probe is nil-safe by design: every method on a nil *Probe returns
// immediately, so components hold a plain *Probe field that defaults to
// nil and pay only an untaken branch when observability is disabled. The
// disabled path allocates nothing (see the AllocsPerRun regression test)
// and costs <2% end to end (see BenchmarkSimulatorSpeed variants).
package obs

import (
	"fmt"
	"io"
	"sort"

	"pmemaccel/internal/sim"
)

// Kind identifies one probe point in the event taxonomy.
type Kind uint8

const (
	// KTx is a span: one transaction on a core track, TX_BEGIN
	// retirement to commit completion. ID is the transaction id.
	KTx Kind = iota
	// KCommitWait is a span: the core stalled in TX_END waiting for the
	// mechanism (SP pcommit drain, Kiln commit flush, TCache overflow
	// commit). ID is the transaction id.
	KCommitWait
	// KTxFlush is a span: a Kiln-style commit flush moving a
	// transaction's dirty lines through the hierarchy. ID is the
	// hierarchy's namespaced transaction tag; Arg is lines flushed.
	KTxFlush
	// KTCDrain is a span: one transaction-cache drain burst, first
	// committed-entry issue until nothing is left unissued. Arg is the
	// number of entries issued in the burst.
	KTCDrain
	// KWPQDrain is a span: a memory controller's write-queue drain
	// window (queue hit DrainHigh, served until DrainLow). Core is the
	// channel (0 NVM, 1 DRAM); Arg is writes issued during the drain.
	KWPQDrain
	// KTCCommit is an instant: a commit request was inserted into the
	// TC. ID is the transaction id; Arg is the entries CAM-matched to
	// the committed state.
	KTCCommit
	// KTCFull is an instant: the TC rejected a store (ring full or head
	// blocked) and the core will retry. ID is the transaction id; Arg is
	// the store address.
	KTCFull
	// KTCFallback is an instant: a transaction overflowed to the
	// copy-on-write fall-back path. ID is the transaction id.
	KTCFallback
	// KLLCPDrop is an instant: a dirty persistent LLC victim was
	// dropped instead of written back. ID is the line address.
	KLLCPDrop
	// KSideProbe is an instant: an LLC miss on a persistent line probed
	// the TC side path. ID is the line address; Arg is 1 on a hit.
	KSideProbe
	// KTCDrainOpen is a span: a transaction-cache drain burst still in
	// progress when the probe was collected. End is the collection
	// cycle, not the burst's natural close; Arg is entries issued so
	// far. Emitted by FlushOpenSpans.
	KTCDrainOpen
	// KWPQDrainOpen is a span: a memory-controller write-drain window
	// still open at probe collection. End is the collection cycle; Arg
	// is writes issued so far. Emitted by FlushOpenSpans.
	KWPQDrainOpen
	// KTxStage is a span: one stage of a sampled transaction's flight
	// waterfall (internal/obs/txflight). ID is the flow id
	// (core<<40 | tx id), Arg is the stage index into TxStageNames, and
	// Core is the core for core-side stages or the global channel index
	// for memory-side stages.
	KTxStage

	nKinds
)

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var kindNames = [nKinds]string{
	KTx:           "tx",
	KCommitWait:   "commit-wait",
	KTxFlush:      "commit-flush",
	KTCDrain:      "tc-drain",
	KWPQDrain:     "wpq-drain",
	KTCCommit:     "tc-commit",
	KTCFull:       "tc-full",
	KTCFallback:   "tc-fallback",
	KLLCPDrop:     "llc-pdrop",
	KSideProbe:    "tc-probe",
	KTCDrainOpen:  "tc-drain-open",
	KWPQDrainOpen: "wpq-drain-open",
	KTxStage:      "tx-stage",
}

// NumKinds is the number of event kinds, for per-kind accounting by
// external consumers (e.g. tracedump drop summaries).
const NumKinds = int(nKinds)

// TxStageNames names the flight-recorder waterfall stages in order.
// KTxStage events carry the stage index in Arg.
var TxStageNames = [...]string{"execute", "commit-wait", "tc-drain", "wpq-wait", "nvm-write"}

// Event is one recorded trace entry. Spans carry [Start, End]; instants
// have Start == End. Core is the core (or memory-channel) index, -1 when
// not applicable. ID and Arg are kind-specific (see the Kind constants).
type Event struct {
	Kind       Kind
	Core       int32
	Start, End uint64
	ID         uint64
	Arg        uint64
}

// source is one named sampler input.
type source struct {
	name string
	fn   func() int
}

// sampleRow is one sampler firing: the cycle plus one value per source.
type sampleRow struct {
	cycle uint64
	vals  []int
}

// Probe is the central recorder. A nil *Probe is valid: every method is
// a no-op, which is the zero-overhead disabled path. Build an enabled
// probe with NewProbe.
type Probe struct {
	// events is the ring buffer: append-until-full, then overwrite the
	// oldest at next.
	events []Event
	next   int
	total  uint64

	// droppedByKind counts ring overwrites per event kind, so a
	// saturated ring can't silently bias one stage of a waterfall.
	droppedByKind [nKinds]uint64

	sources     []source
	samples     []sampleRow
	sampleEvery uint64

	// openFlushers emit spans still open at collection time; openSpans
	// counts how many were flushed (previously they were silently
	// dropped with no counter).
	openFlushers []func(now uint64)
	openSpans    uint64
}

// DefaultTraceCapacity bounds the event ring when the caller does not:
// 1<<18 events x 48 bytes ≈ 12 MB, enough for several million simulated
// cycles of TCache activity.
const DefaultTraceCapacity = 1 << 18

// NewProbe returns an enabled probe with the given ring capacity
// (<= 0 selects DefaultTraceCapacity).
func NewProbe(capacity int) *Probe {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Probe{events: make([]Event, 0, capacity)}
}

// Enabled reports whether the probe records anything.
func (p *Probe) Enabled() bool { return p != nil }

// record appends to the ring, overwriting the oldest event once full.
func (p *Probe) record(e Event) {
	if len(p.events) < cap(p.events) {
		p.events = append(p.events, e)
	} else {
		p.droppedByKind[p.events[p.next].Kind]++
		p.events[p.next] = e
		p.next++
		if p.next == len(p.events) {
			p.next = 0
		}
	}
	p.total++
}

// Span records a completed [start, end] interval. Recording at span end
// (with the start carried by the caller) keeps the probe stateless and
// the ring free of unmatched begin markers.
func (p *Probe) Span(k Kind, core int, id, start, end, arg uint64) {
	if p == nil {
		return
	}
	p.record(Event{Kind: k, Core: int32(core), Start: start, End: end, ID: id, Arg: arg})
}

// Instant records a point event at the given cycle.
func (p *Probe) Instant(k Kind, core int, id, cycle, arg uint64) {
	if p == nil {
		return
	}
	p.record(Event{Kind: k, Core: int32(core), Start: cycle, End: cycle, ID: id, Arg: arg})
}

// Events returns the retained events ordered by start cycle.
func (p *Probe) Events() []Event {
	if p == nil {
		return nil
	}
	out := make([]Event, 0, len(p.events))
	out = append(out, p.events[p.next:]...)
	out = append(out, p.events[:p.next]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// CountKind reports retained events of the given kind.
func (p *Probe) CountKind(k Kind) int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.events {
		if p.events[i].Kind == k {
			n++
		}
	}
	return n
}

// Recorded reports events ever recorded; Dropped reports how many the
// ring has overwritten.
func (p *Probe) Recorded() uint64 {
	if p == nil {
		return 0
	}
	return p.total
}

// Dropped reports events lost to ring overwrite.
func (p *Probe) Dropped() uint64 {
	if p == nil {
		return 0
	}
	return p.total - uint64(len(p.events))
}

// DroppedByKind reports ring overwrites broken out per event kind,
// indexed by Kind. The per-kind counts sum to Dropped().
func (p *Probe) DroppedByKind() []uint64 {
	if p == nil {
		return nil
	}
	out := make([]uint64, nKinds)
	copy(out, p.droppedByKind[:])
	return out
}

// AddOpenSpanFlusher registers a callback that emits any span the
// component still has open (a TC drain burst, a write-queue drain
// window) when FlushOpenSpans runs. The callback must record through the
// probe's usual Span method, using the open-span kind for its event, and
// must not mutate component state — simulation may in principle continue
// after a collection.
func (p *Probe) AddOpenSpanFlusher(fn func(now uint64)) {
	if p == nil {
		return
	}
	p.openFlushers = append(p.openFlushers, fn)
}

// FlushOpenSpans records every still-open span, ending at the given
// cycle — without it, a burst or drain window in progress when the run
// stops silently vanishes from the trace. Call it once, at collection
// time (System.collect does; call it manually before exporting a probe
// from a run stopped mid-flight, e.g. after RunToCycle). Calling it
// twice records the still-open spans twice.
func (p *Probe) FlushOpenSpans(now uint64) {
	if p == nil {
		return
	}
	before := p.total
	for _, fn := range p.openFlushers {
		fn(now)
	}
	p.openSpans += p.total - before
}

// OpenSpansFlushed reports how many open spans FlushOpenSpans recorded.
func (p *Probe) OpenSpansFlushed() uint64 {
	if p == nil {
		return 0
	}
	return p.openSpans
}

// AddSource registers a named integer source for the periodic sampler.
// Sources must be added before StartSampling.
func (p *Probe) AddSource(name string, fn func() int) {
	if p == nil {
		return
	}
	p.sources = append(p.sources, source{name: name, fn: fn})
}

// StartSampling arranges a self-rescheduling kernel callback that
// samples every registered source each `every` cycles.
func (p *Probe) StartSampling(k *sim.Kernel, every uint64) {
	if p == nil || every == 0 || len(p.sources) == 0 {
		return
	}
	p.sampleEvery = every
	var fire sim.Event
	fire.Fn = func(uint64) {
		p.sample(k.Now())
		k.Schedule(every, fire)
	}
	k.Schedule(every, fire)
}

func (p *Probe) sample(cycle uint64) {
	vals := make([]int, len(p.sources))
	for i, s := range p.sources {
		vals[i] = s.fn()
	}
	p.samples = append(p.samples, sampleRow{cycle: cycle, vals: vals})
}

// SampleCount reports sampler firings so far.
func (p *Probe) SampleCount() int {
	if p == nil {
		return 0
	}
	return len(p.samples)
}

// SampleCycles returns the cycle of each sampler firing, in firing
// order — the row spine of WriteMetricsCSV. Exposed so integration
// tests can check the sampling cadence survives quiescence
// fast-forwards.
func (p *Probe) SampleCycles() []uint64 {
	if p == nil {
		return nil
	}
	out := make([]uint64, len(p.samples))
	for i, row := range p.samples {
		out[i] = row.cycle
	}
	return out
}

// SourceNames returns the registered source names in column order.
func (p *Probe) SourceNames() []string {
	if p == nil {
		return nil
	}
	names := make([]string, len(p.sources))
	for i, s := range p.sources {
		names[i] = s.name
	}
	return names
}

// WriteMetricsCSV writes the sampled time series as CSV: a `cycle`
// column followed by one column per source.
func (p *Probe) WriteMetricsCSV(w io.Writer) error {
	if p == nil {
		return nil
	}
	if _, err := io.WriteString(w, "cycle"); err != nil {
		return err
	}
	for _, s := range p.sources {
		if _, err := io.WriteString(w, ","+s.name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, row := range p.samples {
		if _, err := fmt.Fprintf(w, "%d", row.cycle); err != nil {
			return err
		}
		for _, v := range row.vals {
			if _, err := fmt.Fprintf(w, ",%d", v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
