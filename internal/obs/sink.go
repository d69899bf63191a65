package obs

import (
	"strings"

	"pmemaccel/internal/obs/metrics"
)

// Sink is the one observer a component holds. Components report each
// event once, with typed arguments; the sink decides what that event
// becomes in each consumer the run enabled — a Chrome-trace span or
// instant in the Probe ring, a histogram observation or counter bump in
// the metrics registry, a checkpoint in the flight recorder — and owns
// the state that only observation needs (drain-burst, write-drain and
// parked-writer span boundaries, and so the spans still open at
// collection; the start cycle of each side-hit fill in flight).
//
// Observation never steers the simulation: no component reads the sink
// to decide what to do, so a run takes the same code path, and produces
// the same Result, with or without a sink attached.
//
// A nil *Sink is valid and inert: every method returns at once, so a
// disabled run pays one untaken branch per emit site. Build one with
// NewSink. A sink is single-goroutine, like the simulation it observes.
type Sink struct {
	probe  *Probe
	reg    *metrics.Registry
	flight *FlightRecorder

	// Run-wide metrics, resolved once by name (nil when metrics are
	// off, which makes every observation a no-op).
	txLat, commitWait, sideHitLat *metrics.Histogram
	fallbacks                     *metrics.Counter

	// bursts (TC drain bursts, by core) and wpq (memory write-drain
	// windows, by global channel id) hold the drain windows; full holds
	// each core's tc-full span (a TC writer parked on a Full reject).
	bursts []window
	wpq    []window
	full   []stall

	// sideHits maps the line of each side-hit LLC miss in flight to the
	// cycle its probe hit. The hierarchy merges misses per line, so one
	// entry per line suffices, and the fill removes it.
	sideHits map[uint64]uint64
}

// window is one drain window: open from start, n items issued so far,
// and the histograms its duration and item count close into.
type window struct {
	open          bool
	start, n      uint64
	cycles, items *metrics.Histogram
}

// stall is one core's tc-full span: a store of tx to addr rejected at
// start, open until the drain ack that wakes the parked writer.
type stall struct {
	open            bool
	tx, addr, start uint64
}

// NewSink builds the observer over the given consumers: an event ring
// (p), a metrics registry (reg) and a flight recorder sampling every
// txSample-th transaction id (0 disables it; its stage spans land in p).
// Any of them may be absent; with none it returns nil, the disabled sink.
func NewSink(p *Probe, reg *metrics.Registry, txSample uint64) *Sink {
	fr := NewFlightRecorder(txSample, p)
	if p == nil && reg == nil && fr == nil {
		return nil
	}
	return &Sink{
		probe: p, reg: reg, flight: fr,
		txLat:      reg.Histogram("tx_latency_cycles"),
		commitWait: reg.Histogram("commit_wait_cycles"),
		sideHitLat: reg.Histogram("side_probe_hit_latency_cycles"),
		sideHits:   make(map[uint64]uint64),
	}
}

// Probe returns the event ring (nil when tracing is off).
func (o *Sink) Probe() *Probe {
	if o == nil {
		return nil
	}
	return o.probe
}

// Metrics returns the metrics registry (nil when metrics are off).
func (o *Sink) Metrics() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Flight returns the flight recorder (nil when sampling is off).
func (o *Sink) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// TxBegin reports a TX_BEGIN retiring on core.
func (o *Sink) TxBegin(core int, tx, now uint64) {
	if o != nil {
		o.flight.Begin(core, tx, now)
	}
}

// TxCommit reports a committed transaction: TX_BEGIN retired at begin,
// TX_END at req, and the commit completed at end. waited is set when the
// TX_END stalled the core in a commit wait (then end may exceed req).
func (o *Sink) TxCommit(core int, tx, begin, req, end uint64, waited bool) {
	if o != nil {
		o.txCommit(core, tx, begin, req, end, waited)
	}
}

func (o *Sink) txCommit(core int, tx, begin, req, end uint64, waited bool) {
	if waited {
		o.probe.Span(KCommitWait, core, tx, req, end, 0)
	}
	o.probe.Span(KTx, core, tx, begin, end, 0)
	o.commitWait.Observe(end - req)
	o.txLat.Observe(end - begin)
	o.flight.Commit(core, tx, req, end)
}

// AddTC announces core's transaction cache. Call it once, when the TC
// is built: the drain-burst histograms and the fall-back counter exist
// only in runs that have TCs.
func (o *Sink) AddTC(core int) {
	if o == nil {
		return
	}
	for len(o.bursts) <= core {
		o.bursts = append(o.bursts, window{})
		o.full = append(o.full, stall{})
	}
	// Burst histograms are run-wide: the paper's claim is about the
	// burst distribution, not any one core's.
	o.bursts[core].cycles = o.reg.Histogram("tc_drain_burst_cycles")
	o.bursts[core].items = o.reg.Histogram("tc_drain_burst_entries")
	o.fallbacks = o.reg.Counter("tc_fallback_txs")
}

// TCFull reports core's TC rejecting a store of tx to addr (ring full or
// head blocked), which opens the core's tc-full span unless one is open.
func (o *Sink) TCFull(core int, tx, addr, now uint64) {
	if o != nil && !o.full[core].open {
		o.full[core] = stall{open: true, tx: tx, addr: addr, start: now}
	}
}

// TCWake reports the drain ack that wakes core's parked writer, closing
// its tc-full span.
func (o *Sink) TCWake(core int, now uint64) {
	if o != nil {
		o.tcWake(core, now)
	}
}

func (o *Sink) tcWake(core int, now uint64) {
	if s := &o.full[core]; s.open {
		o.probe.Span(KTCFull, core, s.tx, s.start, now, s.addr)
		s.open = false
	}
}

// TCFallback reports tx overflowing core's TC to the copy-on-write
// fall-back path.
func (o *Sink) TCFallback(core int, tx, addr, now uint64) {
	if o != nil {
		o.tcFallback(core, tx, addr, now)
	}
}

func (o *Sink) tcFallback(core int, tx, addr, now uint64) {
	o.probe.Instant(KTCFallback, core, tx, now, addr)
	o.fallbacks.Inc()
	o.flight.MarkFallback(core, tx)
}

// TCCommit reports tx's commit request CAM-matching matched entries in
// core's TC — the tracked writes its flight waits out.
func (o *Sink) TCCommit(core int, tx, matched, now uint64) {
	if o != nil {
		o.tcCommit(core, tx, matched, now)
	}
}

func (o *Sink) tcCommit(core int, tx, matched, now uint64) {
	o.probe.Instant(KTCCommit, core, tx, now, matched)
	o.flight.CommitMatched(core, tx, int(matched))
}

// TCBurstIssue reports core's TC issuing one committed entry toward
// memory; the first issue after an idle TC opens a drain burst.
func (o *Sink) TCBurstIssue(core int, now uint64) {
	if o == nil {
		return
	}
	b := &o.bursts[core]
	if !b.open {
		b.open, b.start, b.n = true, now, 0
	}
	b.n++
}

// TCBurstEnd reports core's TC with nothing left to issue (after an
// issue or an eviction), closing an open drain burst.
func (o *Sink) TCBurstEnd(core int, now uint64) {
	if o != nil && o.bursts[core].open {
		o.close(KTCDrain, core, &o.bursts[core], now)
	}
}

// close ends window w of the component on track at now.
func (o *Sink) close(k Kind, track int, w *window, now uint64) {
	o.probe.Span(k, track, 0, w.start, now, w.n)
	w.items.Observe(w.n)
	w.cycles.Observe(now - w.start)
	w.open = false
}

// TCWrite reports a drain write of tx leaving core's TC and returns the
// flight token the memory path marks (ServiceStart) and hands back at
// durability (WriteDurable) — nil unless the flight recorder samples tx.
func (o *Sink) TCWrite(core int, tx, now uint64) *FlightWrite {
	if o == nil {
		return nil
	}
	return o.flight.TCIssue(core, tx, now)
}

// WriteDurable reports a tracked drain write becoming durable.
func (o *Sink) WriteDurable(w *FlightWrite, now uint64) {
	if o != nil {
		o.flight.WriteDurable(w, now)
	}
}

// SideProbe reports an LLC miss on a persistent line probing the TC side
// path; hit is 1 when a TC held the line. A hit's fill latency is
// observed when MemFill reports the line's fill.
func (o *Sink) SideProbe(lineAddr, hit, now uint64) {
	if o != nil {
		o.probe.Instant(KSideProbe, -1, lineAddr, now, hit)
		if hit == 1 {
			o.sideHits[lineAddr] = now
		}
	}
}

// MemFill reports an LLC miss's line returning from memory. When the
// miss's side-path probe hit, the fill latency is observed: the side path
// holds words, not lines, so a "TC hit" still fills at memory latency.
func (o *Sink) MemFill(lineAddr, now uint64) {
	if o != nil {
		o.memFill(lineAddr, now)
	}
}

func (o *Sink) memFill(lineAddr, now uint64) {
	if start, ok := o.sideHits[lineAddr]; ok {
		delete(o.sideHits, lineAddr)
		o.sideHitLat.Observe(now - start)
	}
}

// LLCDrop reports a dirty persistent LLC victim dropped instead of
// written back.
func (o *Sink) LLCDrop(lineAddr, now uint64) {
	if o != nil {
		o.probe.Instant(KLLCPDrop, -1, lineAddr, now, 0)
	}
}

// TxFlush reports a commit flush moving lines of tx out of core's
// private caches over [start, end].
func (o *Sink) TxFlush(core int, tx, start, end, lines uint64) {
	if o != nil {
		o.probe.Span(KTxFlush, core, tx, start, end, lines)
	}
}

// AddChannel announces memory channel id (its global index: NVM
// channels first, then DRAM) and its configured name, which keys its
// write-drain histograms ("wpq_drain_cycles_nvm0", ...).
func (o *Sink) AddChannel(id int, name string) {
	if o == nil {
		return
	}
	for len(o.wpq) <= id {
		o.wpq = append(o.wpq, window{})
	}
	name = strings.ToLower(name)
	o.wpq[id].cycles = o.reg.Histogram("wpq_drain_cycles_" + name)
	o.wpq[id].items = o.reg.Histogram("wpq_drain_writes_" + name)
}

// WPQDrainStart reports channel ch entering write-drain mode.
func (o *Sink) WPQDrainStart(ch int, now uint64) {
	if o != nil {
		w := &o.wpq[ch]
		w.open, w.start, w.n = true, now, 0
	}
}

// WPQWrite reports channel ch issuing a write.
func (o *Sink) WPQWrite(ch int) {
	if o != nil && o.wpq[ch].open {
		o.wpq[ch].n++
	}
}

// WPQDrainEnd reports channel ch leaving write-drain mode.
func (o *Sink) WPQDrainEnd(ch int, now uint64) {
	if o != nil && o.wpq[ch].open {
		o.close(KWPQDrain, ch, &o.wpq[ch], now)
	}
}

// FlushOpenSpans records every span still open — write-drain windows in
// channel order, then TC drain bursts and tc-full spans in core order —
// as an event ending at now, so a burst in progress when the run stops
// does not vanish from the trace. Drain windows become their -open kinds;
// a tc-full span keeps its kind. Call it once, at collection time (the
// system's collect does; call it by hand before exporting a trace from a
// run stopped mid-flight). The spans stay open, so a second call
// records them again.
func (o *Sink) FlushOpenSpans(now uint64) {
	p := o.Probe()
	if p == nil {
		return
	}
	before := p.total
	for ch, w := range o.wpq {
		if w.open {
			p.Span(KWPQDrainOpen, ch, 0, w.start, now, w.n)
		}
	}
	for core, b := range o.bursts {
		if b.open {
			p.Span(KTCDrainOpen, core, 0, b.start, now, b.n)
		}
	}
	for core, s := range o.full {
		if s.open {
			p.Span(KTCFull, core, s.tx, s.start, now, s.addr)
		}
	}
	p.openSpans += p.total - before
}
