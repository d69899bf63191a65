// Package txcache implements the paper's contribution: the nonvolatile
// transaction cache (TC), a per-core content-addressable FIFO (CAM FIFO,
// §4.1) deployed beside the cache hierarchy.
//
// The data array is a ring of cache-line-sized entries, each carrying the
// transaction id, entry state (available / active / committed), the store
// address and the 64-bit store value. CPU write requests insert at the
// head; a commit request CAM-matches every active entry of the committing
// transaction into the committed state; committed entries issue toward the
// NVM controller in FIFO order from the tail; and the controller's
// acknowledgment messages CAM-match the entry nearest the tail back to
// available, letting the tail advance. LLC miss requests CAM-match the
// entry nearest the head (the newest version) — the side-path probe.
//
// Because the TC is nonvolatile, a transaction is durably committed the
// moment its commit request is inserted: every mechanism guarantee
// (multi-versioning and write-order control, §3) follows from this
// structure and is exercised directly by the crash-recovery tests.
package txcache

import (
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/obs/txflight"
	"pmemaccel/internal/sim"
)

// State is a data-array entry state (§4.1, Figure 4).
type State uint8

const (
	// Available entries hold no live data and can accept a write.
	Available State = iota
	// Active entries belong to an in-flight (uncommitted) transaction.
	Active
	// Committed entries await issue to, and acknowledgment from, the
	// NVM controller.
	Committed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Available:
		return "available"
	case Active:
		return "active"
	case Committed:
		return "committed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Entry is one data-array line.
type Entry struct {
	State  State
	TxID   uint64
	Addr   uint64 // word address of the buffered store
	Value  uint64
	issued bool // sent to the NVM controller, awaiting ack
}

// WriteResult reports how the TC handled a CPU write request.
type WriteResult int

const (
	// Accepted: the write was buffered normally.
	Accepted WriteResult = iota
	// Fallback: occupancy is at or above the high-water mark; the
	// caller must route this update through the hardware
	// copy-on-write fall-back path (§4.1, "Transaction Cache
	// Overflow").
	Fallback
	// Full: every entry is live; the CPU must stall and retry.
	Full
)

// Port is the TC's private write port into the memory backend. Drained
// entries target whichever NVM channel owns their line; the TC itself is
// topology-blind — per-channel FIFO completion of same-line writes is all
// its address-matched acknowledgments require.
type Port interface {
	Write(lineAddr uint64, apply, onDurable sim.Event)
}

// TrackedPort is the optional port capability the flight recorder
// rides on: a write that additionally marks the flight-recorder write w
// with its service-start cycle and owning global channel id.
// memctrl.Backend implements it; timing-only fake ports need not.
type TrackedPort interface {
	Port
	WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *txflight.Write)
}

// Config sizes one per-core transaction cache.
type Config struct {
	// SizeBytes is the data-array capacity (Table 2: 4 KB per core).
	SizeBytes int
	// EntryBytes is the line size per entry (64).
	EntryBytes int
	// Latency is the access latency in cycles (0.5 ns -> 1 cycle).
	Latency uint64
	// HighWaterFrac triggers the overflow fall-back (0.9).
	HighWaterFrac float64
	// IssuePerCycle bounds committed-entry drain bandwidth.
	IssuePerCycle int
}

// WithDefaults fills zero fields with the Table 2 values.
func (c Config) WithDefaults() Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 4 << 10
	}
	if c.EntryBytes == 0 {
		c.EntryBytes = 64
	}
	if c.Latency == 0 {
		c.Latency = 1
	}
	if c.HighWaterFrac == 0 {
		c.HighWaterFrac = 0.9
	}
	if c.IssuePerCycle == 0 {
		c.IssuePerCycle = 1
	}
	return c
}

// Entries returns the data-array entry count.
func (c Config) Entries() int { return c.SizeBytes / c.EntryBytes }

// Validate rejects configurations WithDefaults would silently accept but
// that misbehave downstream (a high-water mark above 1, an entry size
// that does not divide the capacity). Call it on the defaulted
// configuration.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.EntryBytes <= 0 {
		return fmt.Errorf("txcache: SizeBytes %d and EntryBytes %d must be positive",
			c.SizeBytes, c.EntryBytes)
	}
	if c.SizeBytes%c.EntryBytes != 0 {
		return fmt.Errorf("txcache: EntryBytes %d does not divide SizeBytes %d — %d bytes would be silently lost",
			c.EntryBytes, c.SizeBytes, c.SizeBytes%c.EntryBytes)
	}
	if c.Entries() < 2 {
		return fmt.Errorf("txcache: %d bytes / %d-byte entries leaves %d entries, need at least 2",
			c.SizeBytes, c.EntryBytes, c.Entries())
	}
	if !(c.HighWaterFrac > 0 && c.HighWaterFrac <= 1) { // NaN fails too
		return fmt.Errorf("txcache: HighWaterFrac %g must be in (0, 1]", c.HighWaterFrac)
	}
	if c.IssuePerCycle <= 0 {
		return fmt.Errorf("txcache: IssuePerCycle %d must be positive", c.IssuePerCycle)
	}
	return nil
}

// Stats counts TC activity.
type Stats struct {
	Writes         uint64
	Commits        uint64
	Issued         uint64 // writes sent toward NVM
	Acked          uint64
	Probes         uint64
	ProbeHits      uint64
	FallbackWrites uint64
	FullRejects    uint64
	OccupancyPeak  int
}

// drainWrite is one issued drain write: the buffered word it carries.
type drainWrite struct {
	addr, value uint64
}

// TxCache is one core's transaction cache. Register with the kernel so
// the drain state machine ticks.
type TxCache struct {
	k   *sim.Kernel
	cfg Config
	mem Port
	// durableApply writes one word into the durable NVM image; the
	// system provides it so the TC stays image-agnostic.
	durableApply func(addr, value uint64)
	// onAck, when set, observes every drain acknowledgment (word
	// address) after the entry clears — the conflict layer's release
	// point for shared-line ownership. Acks fire from memory-completion
	// events.
	onAck func(addr uint64)

	entries []Entry
	head    int // next insert slot
	tail    int // oldest live entry
	count   int
	issue   int // next entry to consider issuing (ring index)
	// issuable counts committed, unissued entries between issue and
	// head.
	unissued int

	// drains holds the word each issued drain write carries, from issue
	// to acknowledgment; the write's apply and ack Events hold the slot
	// index. (A ring index would not do: an ack retires the matching
	// entry nearest the tail, not necessarily the one that issued it.)
	drains         sim.Slots[drainWrite]
	applyFn, ackFn func(uint64)
	// evicted is EvictTx's reused result buffer.
	evicted []Entry

	// probe is the observability recorder (nil when disabled); coreID
	// labels this TC's events. burst* track the current drain burst:
	// first committed-entry issue until nothing is left unissued.
	probe       *obs.Probe
	coreID      int
	burstActive bool
	burstStart  uint64
	burstIssued uint64

	// hBurstEntries/hBurstCycles stream each closed drain burst's size
	// and duration into the metrics registry (nil when disabled).
	hBurstEntries *metrics.Histogram
	hBurstCycles  *metrics.Histogram

	// fr is the transaction flight recorder (nil when sampling is off);
	// frPort is the tracked write port it observes drain writes
	// through. Both are set together by SetFlight.
	fr     *txflight.Recorder
	frPort TrackedPort

	stats Stats
}

// New builds a TC draining into mem and registers it with k.
// durableApply may be nil (timing-only use).
func New(k *sim.Kernel, cfg Config, mem Port, durableApply func(addr, value uint64)) *TxCache {
	cfg = cfg.WithDefaults()
	if cfg.Entries() < 2 {
		panic(fmt.Sprintf("txcache: %d bytes / %d-byte entries leaves %d entries",
			cfg.SizeBytes, cfg.EntryBytes, cfg.Entries()))
	}
	tc := &TxCache{
		k: k, cfg: cfg, mem: mem, durableApply: durableApply,
		entries: make([]Entry, cfg.Entries()),
	}
	tc.applyFn = tc.applyDrain
	tc.ackFn = tc.ackDrain
	k.Register(tc)
	return tc
}

// SetAckHook installs fn to observe every drain acknowledgment's word
// address. Wire-up time only (before the run starts).
func (tc *TxCache) SetAckHook(fn func(addr uint64)) { tc.onAck = fn }

// SetProbe attaches the observability recorder (nil disables probing);
// core labels this TC's events in the trace. A drain burst still open
// when the probe is collected is flushed as a KTCDrainOpen span ending
// at the collection cycle, so truncated bursts appear in the trace
// instead of vanishing.
func (tc *TxCache) SetProbe(p *obs.Probe, core int) {
	tc.probe = p
	tc.coreID = core
	p.AddOpenSpanFlusher(func(now uint64) {
		if tc.burstActive {
			p.Span(obs.KTCDrainOpen, tc.coreID, 0, tc.burstStart, now, tc.burstIssued)
		}
	})
}

// SetFlight attaches the transaction flight recorder. The tracked
// write checkpoints (TC issue, service start, durable) need the memory
// port to support WriteTracked, so the hooks engage only when it does;
// with a plain Port the recorder still sees commits and the flight
// simply ends at commit with zero tracked writes.
func (tc *TxCache) SetFlight(fr *txflight.Recorder) {
	if fr == nil {
		return
	}
	if tp, ok := tc.mem.(TrackedPort); ok {
		tc.fr = fr
		tc.frPort = tp
	}
}

// SetMetrics attaches the drain-burst histograms: entries issued per
// burst and burst duration in cycles. Nil histograms disable the
// observations; only bursts that close naturally are observed (a burst
// still open at collection is visible through the probe's open-span
// flush, not the histograms).
func (tc *TxCache) SetMetrics(burstEntries, burstCycles *metrics.Histogram) {
	tc.hBurstEntries = burstEntries
	tc.hBurstCycles = burstCycles
}

// Config returns the (defaulted) configuration.
func (tc *TxCache) Config() Config { return tc.cfg }

// Stats returns a copy of the counters.
func (tc *TxCache) Stats() Stats { return tc.stats }

// Occupancy reports live (non-available) entries.
func (tc *TxCache) Occupancy() int { return tc.count }

// highWater is the occupancy that triggers the fall-back path.
func (tc *TxCache) highWater() int {
	return int(float64(len(tc.entries)) * tc.cfg.HighWaterFrac)
}

func (tc *TxCache) next(i int) int {
	if i == len(tc.entries)-1 {
		return 0
	}
	return i + 1
}

// recordInstant records a probe instant at the current cycle.
func (tc *TxCache) recordInstant(k obs.Kind, txID, arg uint64) {
	if tc.probe == nil {
		return
	}
	tc.probe.Instant(k, tc.coreID, txID, tc.k.Now(), arg)
}

// Write inserts a buffered store for txID at the head. The result tells
// the caller whether to proceed normally, take the fall-back path, or
// stall.
func (tc *TxCache) Write(txID, addr, value uint64) WriteResult {
	if tc.count >= len(tc.entries) {
		tc.stats.FullRejects++
		tc.recordInstant(obs.KTCFull, txID, addr)
		return Full
	}
	if tc.count >= tc.highWater() {
		tc.stats.FallbackWrites++
		tc.recordInstant(obs.KTCFallback, txID, addr)
		return Fallback
	}
	e := &tc.entries[tc.head]
	if e.State != Available {
		// Acknowledgments can complete out of order, leaving holes
		// behind a still-live entry at the head slot. The FIFO cannot
		// use holes ("we have to wait for data being written back",
		// §4.1), so the writer stalls exactly as on a full ring.
		tc.stats.FullRejects++
		tc.recordInstant(obs.KTCFull, txID, addr)
		return Full
	}
	*e = Entry{State: Active, TxID: txID, Addr: memaddr.WordAddr(addr), Value: value}
	tc.head = tc.next(tc.head)
	tc.count++
	tc.unissued++
	if tc.count > tc.stats.OccupancyPeak {
		tc.stats.OccupancyPeak = tc.count
	}
	tc.stats.Writes++
	return Accepted
}

// Commit CAM-matches every active entry of txID into the committed state.
// Being nonvolatile, the TC makes the transaction durable at this instant.
func (tc *TxCache) Commit(txID uint64) {
	tc.stats.Commits++
	var matched uint64
	for i := range tc.entries {
		if tc.entries[i].State == Active && tc.entries[i].TxID == txID {
			tc.entries[i].State = Committed
			matched++
		}
	}
	if tc.probe == nil && tc.fr == nil {
		return
	}
	tc.probe.Instant(obs.KTCCommit, tc.coreID, txID, tc.k.Now(), matched)
	// The flight recorder learns how many tracked writes the commit must
	// wait out before the flight can finalize.
	if tc.fr != nil {
		tc.fr.CommitMatched(tc.coreID, txID, int(matched))
	}
}

// Probe serves an LLC miss request: CAM-match live entries for the cache
// line, nearest the head first (newest version wins). It reports whether
// the TC holds data for that line.
func (tc *TxCache) Probe(lineAddr uint64) bool {
	tc.stats.Probes++
	if tc.count == 0 {
		return false // an empty CAM cannot hit
	}
	lineAddr = memaddr.LineAddr(lineAddr)
	// Out-of-order acknowledgments leave available holes between tail
	// and head, so the scan walks slots newest first — but only until it
	// has seen every live entry: the remaining slots are all available
	// and cannot match.
	for n, live, i := 0, 0, tc.prev(tc.head); n < len(tc.entries) && live < tc.count; n, i = n+1, tc.prev(i) {
		e := &tc.entries[i]
		if e.State == Available {
			continue
		}
		live++
		if memaddr.LineAddr(e.Addr) == lineAddr {
			tc.stats.ProbeHits++
			return true
		}
	}
	return false
}

func (tc *TxCache) prev(i int) int {
	if i == 0 {
		return len(tc.entries) - 1
	}
	return i - 1
}

// Idle implements sim.Quiescer: Tick is a pure no-op exactly when
// either nothing is left to issue and no drain burst is waiting to close
// (the burst-end check emits a probe span and clears burstActive, a
// state change), or the issue pointer is parked on an active entry — in
// FIFO order an uncommitted entry blocks everything younger, so issueOne
// returns without advancing the pointer or touching the burst. The
// blocking entry can only commit through its core's activity, and a core
// that could run reports busy itself.
func (tc *TxCache) Idle() bool {
	if tc.unissued == 0 {
		return !tc.burstActive
	}
	return tc.entries[tc.issue].State == Active
}

// Tick implements sim.Tickable: issue committed entries toward the NVM in
// FIFO order, up to IssuePerCycle. A drain burst (the off-critical-path
// write stream of §4.3) spans from the first issue until nothing is left
// unissued.
func (tc *TxCache) Tick(now uint64) {
	for n := 0; n < tc.cfg.IssuePerCycle; n++ {
		if !tc.issueOne() {
			break
		}
	}
	if tc.burstActive && tc.unissued == 0 {
		tc.probe.Span(obs.KTCDrain, tc.coreID, 0, tc.burstStart, now, tc.burstIssued)
		tc.hBurstEntries.Observe(tc.burstIssued)
		tc.hBurstCycles.Observe(now - tc.burstStart)
		tc.burstActive = false
	}
}

// issueOne sends the oldest committed, unissued entry. It returns false
// when nothing is issuable (the next candidate is active or the ring is
// drained).
func (tc *TxCache) issueOne() bool {
	if tc.unissued == 0 {
		return false
	}
	// Advance the issue pointer over already-issued or available
	// entries to the oldest unissued one. Bounded by the ring size;
	// unissued > 0 guarantees a stop.
	for steps := 0; tc.entries[tc.issue].State != Active &&
		!(tc.entries[tc.issue].State == Committed && !tc.entries[tc.issue].issued); steps++ {
		if steps > len(tc.entries) {
			panic("txcache: issue pointer found no candidate despite unissued > 0")
		}
		tc.issue = tc.next(tc.issue)
	}
	e := &tc.entries[tc.issue]
	if e.State == Active {
		// FIFO order: an active (uncommitted) entry blocks everything
		// younger than it.
		return false
	}
	e.issued = true
	tc.unissued--
	tc.stats.Issued++
	if (tc.probe != nil || tc.hBurstCycles != nil) && !tc.burstActive {
		tc.burstActive = true
		tc.burstStart = tc.k.Now()
		tc.burstIssued = 0
	}
	tc.burstIssued++
	slot := tc.drains.Put(drainWrite{addr: e.Addr, value: e.Value})
	var apply sim.Event
	if tc.durableApply != nil {
		apply = sim.Event{Fn: tc.applyFn, Arg: slot}
	}
	ack := sim.Event{Fn: tc.ackFn, Arg: slot}
	if tc.fr != nil && tc.fr.Sampled(e.TxID) {
		// Sampled transaction: route through the tracked port so the
		// flight recorder sees TC issue, WPQ service start (with the
		// channel) and durable completion for this write.
		tc.issueTracked(e.Addr, apply, ack, e.TxID, tc.k.Now())
	} else {
		tc.mem.Write(memaddr.LineAddr(e.Addr), apply, ack)
	}
	tc.issue = tc.next(tc.issue)
	return true
}

// issueTracked is issueOne's drain write for a sampled transaction: it
// opens the flight-recorder write and routes through the tracked port so
// the recorder sees TC issue, WPQ service start and durable completion.
// Sampling is off the hot path, so the durable mark rides in a closure.
func (tc *TxCache) issueTracked(addr uint64, apply, ack sim.Event, txID, issueAt uint64) {
	w := tc.fr.TCIssue(tc.coreID, txID, issueAt)
	tc.frPort.WriteTracked(memaddr.LineAddr(addr), apply, sim.Event{Fn: func(uint64) {
		ack.Fire()
		tc.fr.WriteDurable(w, tc.k.Now())
	}}, w)
}

// applyDrain writes a drain write's word into the durable image at
// durability time (Arg: tc.drains slot).
func (tc *TxCache) applyDrain(slot uint64) {
	d := tc.drains.Get(slot)
	tc.durableApply(d.addr, d.value)
}

// ackDrain delivers a drain write's acknowledgment and releases its slot.
func (tc *TxCache) ackDrain(slot uint64) {
	tc.Ack(tc.drains.Take(slot).addr)
}

// Ack handles the NVM controller's acknowledgment for a written-back
// entry: CAM-match the issued entry with this address nearest the tail to
// the available state, then advance the tail over available entries.
func (tc *TxCache) Ack(addr uint64) {
	addr = memaddr.WordAddr(addr)
	// Walk every slot oldest-first: holes may separate live entries.
	for n, i := 0, tc.tail; n < len(tc.entries); n, i = n+1, tc.next(i) {
		e := &tc.entries[i]
		if e.State == Committed && e.issued && e.Addr == addr {
			*e = Entry{}
			tc.count--
			tc.stats.Acked++
			for tc.count > 0 && tc.entries[tc.tail].State == Available {
				tc.tail = tc.next(tc.tail)
			}
			if tc.count == 0 {
				tc.tail = tc.head
				tc.issue = tc.head
			}
			if tc.onAck != nil {
				tc.onAck(addr)
			}
			return
		}
	}
	panic(fmt.Sprintf("txcache: ack for %#x matches no issued entry", addr))
}

// EvictTx removes every active entry of txID from the ring, returning
// them in FIFO (program) order. The overflow fall-back uses it to move an
// overflowed transaction's buffered updates to the copy-on-write shadow,
// so one transaction never has updates split across the two paths (which
// could apply to NVM out of order). The returned slice is reused by the
// next EvictTx call, so an abort's discarded eviction allocates nothing.
func (tc *TxCache) EvictTx(txID uint64) []Entry {
	out := tc.evicted[:0]
	for n, i := 0, tc.tail; n < len(tc.entries); n, i = n+1, tc.next(i) {
		e := &tc.entries[i]
		if e.State == Active && e.TxID == txID {
			out = append(out, *e)
			*e = Entry{}
			tc.count--
			tc.unissued--
		}
	}
	for tc.count > 0 && tc.entries[tc.tail].State == Available {
		tc.tail = tc.next(tc.tail)
	}
	if tc.count == 0 {
		tc.tail = tc.head
		tc.issue = tc.head
	}
	tc.evicted = out
	return out
}

// Drained reports whether no live entries remain.
func (tc *TxCache) Drained() bool { return tc.count == 0 }

// UnackedCommitted reports committed entries not yet acknowledged.
func (tc *TxCache) UnackedCommitted() int {
	n := 0
	for i := range tc.entries {
		if tc.entries[i].State == Committed {
			n++
		}
	}
	return n
}

// Contents returns the live entries in FIFO order (oldest first) — the
// nonvolatile state a crash preserves, consumed by recovery.
func (tc *TxCache) Contents() []Entry {
	out := make([]Entry, 0, tc.count)
	for n, i := 0, tc.tail; n < tc.count; {
		e := tc.entries[i]
		if e.State != Available {
			out = append(out, e)
			n++
		}
		i = tc.next(i)
	}
	return out
}
