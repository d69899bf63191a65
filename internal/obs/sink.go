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
// the state that only observation needs (drain-burst and write-drain
// window boundaries, and so the spans still open at collection).
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

	// windows is set when a consumer wants drain windows (the trace or
	// the registry). A flight-only sink leaves them untracked: an open
	// burst keeps its TC from reporting idle, and a run observed only by
	// the flight recorder must fast-forward exactly like an unobserved
	// one. bursts (TC drain bursts, by core) and wpq (memory
	// write-drain windows, by global channel id) hold them.
	windows bool
	bursts  []window
	wpq     []window
}

// window is one drain window: open from start, n items issued so far,
// and the histograms its duration and item count close into.
type window struct {
	open          bool
	start, n      uint64
	cycles, items *metrics.Histogram
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
		windows:    p != nil || reg != nil,
		txLat:      reg.Histogram("tx_latency_cycles"),
		commitWait: reg.Histogram("commit_wait_cycles"),
		sideHitLat: reg.Histogram("side_probe_hit_latency_cycles"),
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

// Sampled reports whether transaction tx is followed by the flight
// recorder, so its drain writes must be issued tracked (TCWrite).
func (o *Sink) Sampled(tx uint64) bool {
	return o != nil && o.flight.Sampled(tx)
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
	}
	// Burst histograms are run-wide: the paper's claim is about the
	// burst distribution, not any one core's.
	o.bursts[core].cycles = o.reg.Histogram("tc_drain_burst_cycles")
	o.bursts[core].items = o.reg.Histogram("tc_drain_burst_entries")
	o.fallbacks = o.reg.Counter("tc_fallback_txs")
}

// TCFull reports core's TC rejecting a store of tx (ring full or head
// blocked); the core retries.
func (o *Sink) TCFull(core int, tx, addr, now uint64) {
	if o != nil {
		o.probe.Instant(KTCFull, core, tx, now, addr)
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
	if o == nil || !o.windows {
		return
	}
	b := &o.bursts[core]
	if !b.open {
		b.open, b.start, b.n = true, now, 0
	}
	b.n++
}

// TCBurstEnd reports core's TC with nothing left to issue, closing an
// open drain burst.
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

// TCBurstOpen reports whether core's TC has a drain burst waiting for
// TCBurstEnd — a pending state change the TC's Idle must not hide.
func (o *Sink) TCBurstOpen(core int) bool {
	return o != nil && o.bursts[core].open
}

// TCWrite reports a sampled transaction's drain write leaving core's TC
// and returns the flight token the memory path marks (ServiceStart) and
// hands back at durability (WriteDurable).
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
// path; hit is 1 when a TC held the line.
func (o *Sink) SideProbe(lineAddr, hit, now uint64) {
	if o != nil {
		o.probe.Instant(KSideProbe, -1, lineAddr, now, hit)
	}
}

// SideHitFilled reports the fill latency of an LLC miss whose side-path
// probe hit.
func (o *Sink) SideHitFilled(cycles uint64) {
	if o != nil {
		o.sideHitLat.Observe(cycles)
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
	if o != nil && o.windows {
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

// FlushOpenSpans records every window still open — write-drain windows
// in channel order, then TC drain bursts in core order — as an open-span
// event ending at now, so a burst in progress when the run stops does
// not vanish from the trace. Call it once, at collection time (the
// system's collect does; call it by hand before exporting a trace from a
// run stopped mid-flight). The windows stay open, so a second call
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
	p.openSpans += p.total - before
}
