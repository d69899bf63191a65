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
// The modelled behaviour is the CAM's: every match above is one parallel
// access in hardware. The host implementation indexes the ring so that
// each operation costs what it matches rather than a walk over every
// slot:
//   - Commit and EvictTx walk a list of the active entries' ring indices,
//     kept in insertion order, instead of the ring;
//   - a drain write's acknowledgment retires the ring index that issued
//     it. That is the CAM's nearest-tail match: writes to one word go to
//     one line, hence one channel and one bank, and the Port completes
//     same-line writes in issue order, so of the issued entries holding
//     the word, the one acknowledged first is the one issued first, the
//     oldest. Ack keeps the CAM lookup by address for callers that hold
//     no index;
//   - Probe first reads a count of live entries per line bucket and
//     answers a miss without scanning when the line's bucket is empty.
//
// Because the TC is nonvolatile, a transaction is durably committed the
// moment its commit request is inserted: every mechanism guarantee
// (multi-versioning and write-order control, §3) follows from this
// structure and is exercised directly by the crash-recovery tests.
package txcache

import (
	"fmt"
	"math"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
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
// topology-blind.
//
// Contract: writes to one line complete (fire onDurable) in the order
// they were issued. The TC relies on it to retire each acknowledgment's
// own ring entry, which is then the entry the CAM's nearest-tail match
// would pick. The memory controller keeps it because one line maps to
// one channel and bank, FR-FCFS issues the older of two same-bank writes
// to one row first, and a bank serves one command at a time
// (memctrl's TestQuickSameLineWriteOrdering).
type Port interface {
	// WriteTracked retires a line towards memory: apply fires at
	// durability time, then onDurable. The port also marks the flight
	// token w (nil unless the write's transaction is flight-sampled)
	// with its service-start cycle and owning global channel id.
	WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *obs.FlightWrite)
}

// Config sizes one per-core transaction cache. Each entry holds one
// cache line (memaddr.LineSize bytes).
type Config struct {
	// SizeBytes is the data-array capacity (Table 2: 4 KB per core).
	SizeBytes int
	// HighWaterFrac is the occupancy fraction that triggers the overflow
	// fall-back (Table 2: 0.9).
	HighWaterFrac float64
}

// Entries returns the data-array entry count.
func (c Config) Entries() int { return c.SizeBytes / memaddr.LineSize }

// Validate rejects configurations that misbehave downstream: a capacity
// that is not a whole number of lines, fewer than 2 entries, more
// entries than the int32 ring index reaches, or a high-water mark outside
// (0, 1].
func (c Config) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("txcache: SizeBytes %d must be positive", c.SizeBytes)
	}
	if c.SizeBytes%memaddr.LineSize != 0 {
		return fmt.Errorf("txcache: SizeBytes %d is not a multiple of the %d-byte line — %d bytes would be silently lost",
			c.SizeBytes, memaddr.LineSize, c.SizeBytes%memaddr.LineSize)
	}
	if c.Entries() < 2 {
		return fmt.Errorf("txcache: %d bytes / %d-byte entries leaves %d entries, need at least 2",
			c.SizeBytes, memaddr.LineSize, c.Entries())
	}
	if c.Entries() > math.MaxInt32 {
		return fmt.Errorf("txcache: %d entries exceed the ring index range (%d)", c.Entries(), math.MaxInt32)
	}
	if !(c.HighWaterFrac > 0 && c.HighWaterFrac <= 1) { // NaN fails too
		return fmt.Errorf("txcache: HighWaterFrac %g must be in (0, 1]", c.HighWaterFrac)
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

// drainWrite is one issued drain write: the ring index of the entry that
// issued it, the word it writes and its flight token (nil unless its
// transaction is flight-sampled). The entry, and with it the value, stays
// live until the write's acknowledgment.
type drainWrite struct {
	idx  int
	addr uint64
	w    *obs.FlightWrite
}

// TxCache is one core's transaction cache. It registers with the kernel,
// which ticks its drain state machine on every cycle it is awake.
type TxCache struct {
	k    *sim.Kernel
	slot int // kernel slot, for Sleep
	mem  Port
	// durableApply writes one word into the durable NVM image; the
	// system provides it so the TC stays image-agnostic.
	durableApply func(addr, value uint64)
	// arb, when set, sees every drain acknowledgment after the entry
	// clears: the release point for this core's shared-line ownership.
	// Acks fire from memory-completion events.
	arb *LineArbiter

	entries []Entry
	head    int // next insert slot
	tail    int // oldest live entry
	count   int
	issue   int // next entry to consider issuing (ring index)
	// unissued counts the live entries not yet issued, active or
	// committed.
	unissued int
	// highWater is the occupancy that triggers the fall-back path.
	highWater int

	// active lists the ring indices of the Active entries in insertion
	// (FIFO) order; its capacity is the ring size, so it never grows.
	active []int32
	// live counts the live entries per line bucket (lineBucket); an
	// empty bucket lets Probe miss without scanning. A count never
	// exceeds the ring size, which Validate bounds to fit an int32.
	live []int32

	// drains holds each issued drain write from issue to
	// acknowledgment; the write's apply and ack Events hold the slot
	// index.
	drains         sim.Slots[drainWrite]
	applyFn, ackFn func(uint64)
	// evicted is EvictTx's reused result buffer.
	evicted []Entry

	// obs observes this TC (nil when disabled); core is the owning
	// core, which labels its events.
	obs  *obs.Sink
	core int

	// A writer parked on a Full reject sleeps until the next Ack fires
	// wake. rejected is the last cycle whose reject FullRejects counts;
	// the cycles after it that the writer sleeps through are charged
	// lazily, one reject each, as its retries would have been.
	parked   bool
	wake     sim.Event
	rejected uint64

	// onDrain fires when an Ack empties the TC (OnDrain).
	onDrain sim.Event

	stats Stats
}

// New builds core's TC draining into mem and registers it with k.
// durableApply may be nil (timing-only use); o observes the TC (nil
// disables observation).
func New(k *sim.Kernel, cfg Config, mem Port, durableApply func(addr, value uint64), o *obs.Sink, core int) *TxCache {
	if cfg.Entries() < 2 {
		panic(fmt.Sprintf("txcache: %d bytes / %d-byte entries leaves %d entries",
			cfg.SizeBytes, memaddr.LineSize, cfg.Entries()))
	}
	n := cfg.Entries()
	// One allocation backs both indexes; active's capacity stops its
	// appends short of live.
	idx := make([]int32, n+liveBuckets(n))
	tc := &TxCache{
		k: k, mem: mem, durableApply: durableApply,
		entries:   make([]Entry, n),
		highWater: int(float64(n) * cfg.HighWaterFrac),
		active:    idx[:0:n],
		live:      idx[n:],
		obs:       o, core: core,
	}
	o.AddTC(core)
	tc.applyFn = tc.applyDrain
	tc.ackFn = tc.ackDrain
	tc.slot = k.Register(tc)
	tc.sleep()
	return tc
}

// SetArbiter reports every drain acknowledgment to a as this core's
// DrainAck. Wire-up time only (before the run starts).
func (tc *TxCache) SetArbiter(a *LineArbiter) { tc.arb = a }

// OnDrain makes every Ack that empties the TC fire ev, after the ack is
// otherwise handled. Wire-up time only (before the run starts).
func (tc *TxCache) OnDrain(ev sim.Event) { tc.onDrain = ev }

// Stats returns a copy of the counters, with the rejects of a parked
// writer's slept cycles charged. Call it between kernel steps.
func (tc *TxCache) Stats() Stats {
	tc.chargeParked(tc.k.Now() + 1)
	return tc.stats
}

// Occupancy reports live (non-available) entries.
func (tc *TxCache) Occupancy() int { return tc.count }

// liveBuckets sizes the probe filter: the power of two at least twice
// the ring size, so a ring of distinct lines leaves most buckets empty.
func liveBuckets(entries int) int {
	b := 1
	for b < 2*entries {
		b <<= 1
	}
	return b
}

// lineBucket is the probe-filter bucket of the line holding addr.
func (tc *TxCache) lineBucket(addr uint64) int {
	return int(addr/memaddr.LineSize) & (len(tc.live) - 1)
}

func (tc *TxCache) next(i int) int {
	if i == len(tc.entries)-1 {
		return 0
	}
	return i + 1
}

// Write inserts a buffered store for txID at the head. The result tells
// the caller whether to proceed normally, take the fall-back path, or
// stall.
func (tc *TxCache) Write(txID, addr, value uint64) WriteResult {
	if tc.count >= len(tc.entries) {
		return tc.reject(txID, addr)
	}
	if tc.count >= tc.highWater {
		tc.stats.FallbackWrites++
		tc.obs.TCFallback(tc.core, txID, addr, tc.k.Now())
		return Fallback
	}
	e := &tc.entries[tc.head]
	if e.State != Available {
		// Acknowledgments can complete out of order, leaving holes
		// behind a still-live entry at the head slot. The FIFO cannot
		// use holes ("we have to wait for data being written back",
		// §4.1), so the writer stalls exactly as on a full ring.
		return tc.reject(txID, addr)
	}
	if tc.issue == tc.head && tc.unissued > 0 {
		// The issue pointer still rests on a slot an EvictTx freed
		// before any Tick moved it on, and the tail has since passed
		// that slot: this write makes it the youngest entry, and every
		// unissued entry is older. Issue resumes from the tail.
		tc.issue = tc.tail
	}
	*e = Entry{State: Active, TxID: txID, Addr: memaddr.WordAddr(addr), Value: value}
	tc.active = append(tc.active, int32(tc.head))
	tc.live[tc.lineBucket(addr)]++
	tc.head = tc.next(tc.head)
	tc.count++
	tc.unissued++
	if tc.count > tc.stats.OccupancyPeak {
		tc.stats.OccupancyPeak = tc.count
	}
	tc.stats.Writes++
	tc.sleep()
	return Accepted
}

// reject counts and reports one Full answer; the report opens the sink's
// tc-full span.
func (tc *TxCache) reject(txID, addr uint64) WriteResult {
	tc.stats.FullRejects++
	tc.rejected = tc.k.Now()
	tc.obs.TCFull(tc.core, txID, addr, tc.rejected)
	return Full
}

// Park lets the writer Write just rejected as Full sleep until the next
// Ack, which fires wake. Only an Ack can end Full (Write and EvictTx come
// from the sleeping writer itself, and Commit leaves every slot live), so
// until then every retry would return Full and charge one FullRejects,
// which the TC settles lazily. The sink's tc-full span, opened by the
// reject, closes at that Ack.
func (tc *TxCache) Park(wake sim.Event) {
	tc.parked, tc.wake = true, wake
}

// chargeParked charges a parked writer one reject for every cycle after
// the last charged one and before cycle end.
func (tc *TxCache) chargeParked(end uint64) {
	if tc.parked && end > tc.rejected+1 {
		tc.stats.FullRejects += end - 1 - tc.rejected
		tc.rejected = end - 1
	}
}

// Commit CAM-matches every active entry of txID into the committed state.
// Being nonvolatile, the TC makes the transaction durable at this instant.
func (tc *TxCache) Commit(txID uint64) {
	tc.stats.Commits++
	var matched uint64
	keep := tc.active[:0]
	for _, i := range tc.active {
		if e := &tc.entries[i]; e.TxID == txID {
			e.State = Committed
			matched++
		} else {
			keep = append(keep, i)
		}
	}
	tc.active = keep
	tc.obs.TCCommit(tc.core, txID, matched, tc.k.Now())
	tc.sleep()
}

// Probe serves an LLC miss request: CAM-match live entries for the cache
// line, nearest the head first (newest version wins). It reports whether
// the TC holds data for that line.
func (tc *TxCache) Probe(lineAddr uint64) bool {
	tc.stats.Probes++
	if tc.live[tc.lineBucket(lineAddr)] == 0 {
		return false // no live entry shares the line's bucket
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

// sleep re-evaluates whether the TC sleeps. Tick has nothing to do
// exactly when either nothing is left to issue (the Tick or EvictTx that
// emptied it closed the drain burst), or the issue pointer is parked on
// an active entry — in FIFO order an uncommitted entry blocks everything
// younger, so issueOne returns without advancing the pointer. Write,
// Commit, Ack and EvictTx change that state, and each calls sleep.
func (tc *TxCache) sleep() {
	tc.k.Sleep(tc.slot, tc.unissued == 0 || tc.entries[tc.issue].State == Active)
}

// Tick implements sim.Tickable: issue the oldest committed entry toward
// the NVM. A drain burst (the off-critical-path write stream of §4.3)
// spans from the first issue until nothing is left unissued.
func (tc *TxCache) Tick(now uint64) {
	tc.issueOne()
	if tc.unissued == 0 {
		tc.obs.TCBurstEnd(tc.core, now)
	}
	tc.sleep()
}

// issueOne sends the oldest committed, unissued entry, if the next
// candidate is not active and the ring is not drained.
func (tc *TxCache) issueOne() {
	if tc.unissued == 0 {
		return
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
		return
	}
	e.issued = true
	tc.unissued--
	tc.stats.Issued++
	now := tc.k.Now()
	tc.obs.TCBurstIssue(tc.core, now)
	// The flight token lets the recorder see TC issue, WPQ service start
	// (with the channel) and durable completion for a sampled write.
	w := tc.obs.TCWrite(tc.core, e.TxID, now)
	slot := tc.drains.Put(drainWrite{idx: tc.issue, addr: e.Addr, w: w})
	var apply sim.Event
	if tc.durableApply != nil {
		apply = sim.Event{Fn: tc.applyFn, Arg: slot}
	}
	tc.mem.WriteTracked(memaddr.LineAddr(e.Addr), apply, sim.Event{Fn: tc.ackFn, Arg: slot}, w)
	tc.issue = tc.next(tc.issue)
}

// applyDrain writes a drain write's word into the durable image at
// durability time (Arg: tc.drains slot).
func (tc *TxCache) applyDrain(slot uint64) {
	d := tc.drains.Get(slot)
	tc.durableApply(d.addr, tc.entries[d.idx].Value)
}

// ackDrain delivers a drain write's acknowledgment, releases its slot
// and reports the write durable to its flight. It retires the entry that
// issued the write: under the Port's same-line completion order that is
// the CAM's nearest-tail match for the word (see the package doc).
func (tc *TxCache) ackDrain(slot uint64) {
	d := tc.drains.Take(slot)
	if e := &tc.entries[d.idx]; e.State != Committed || !e.issued || e.Addr != d.addr {
		panic(fmt.Sprintf("txcache: ack for %#x finds ring entry %d not issued with that word", d.addr, d.idx))
	}
	tc.retire(d.idx)
	tc.obs.WriteDurable(d.w, tc.k.Now())
}

// Ack handles the NVM controller's acknowledgment for a written-back
// entry: CAM-match the issued entry with this address nearest the tail to
// the available state, then advance the tail over available entries.
func (tc *TxCache) Ack(addr uint64) {
	addr = memaddr.WordAddr(addr)
	// Walk every slot oldest-first: holes may separate live entries.
	for n, i := 0, tc.tail; n < len(tc.entries); n, i = n+1, tc.next(i) {
		if e := &tc.entries[i]; e.State == Committed && e.issued && e.Addr == addr {
			tc.retire(i)
			return
		}
	}
	panic(fmt.Sprintf("txcache: ack for %#x matches no issued entry", addr))
}

// retire returns acknowledged ring entry i to the available state and
// advances the tail over available entries.
func (tc *TxCache) retire(i int) {
	addr := tc.entries[i].Addr
	tc.entries[i] = Entry{}
	tc.count--
	tc.live[tc.lineBucket(addr)]--
	tc.stats.Acked++
	tc.advanceTail()
	tc.sleep()
	// The parked writer retries this cycle for real; it parks again if
	// the head slot is still blocked.
	if tc.parked {
		tc.chargeParked(tc.k.Now())
		tc.parked = false
		tc.obs.TCWake(tc.core, tc.k.Now())
		tc.wake.Fire()
	}
	tc.arb.DrainAck(tc.core, addr)
	if tc.count == 0 {
		tc.onDrain.Fire()
	}
}

// advanceTail moves the tail over available slots to the oldest live
// entry, or to the head when none is left.
func (tc *TxCache) advanceTail() {
	for tc.count > 0 && tc.entries[tc.tail].State == Available {
		tc.tail = tc.next(tc.tail)
	}
	if tc.count == 0 {
		tc.tail = tc.head
		tc.issue = tc.head
	}
}

// EvictTx removes every active entry of txID from the ring, returning
// them in FIFO (program) order. The overflow fall-back uses it to move an
// overflowed transaction's buffered updates to the copy-on-write shadow,
// so one transaction never has updates split across the two paths (which
// could apply to NVM out of order). The returned slice is reused by the
// next EvictTx call, so an abort's discarded eviction allocates nothing.
// EvictTx is the only way unissued reaches zero outside Tick, so it
// closes an open drain burst itself.
func (tc *TxCache) EvictTx(txID uint64) []Entry {
	out := tc.evicted[:0]
	keep := tc.active[:0]
	for _, i := range tc.active {
		e := &tc.entries[i]
		if e.TxID != txID {
			keep = append(keep, i)
			continue
		}
		out = append(out, *e)
		tc.live[tc.lineBucket(e.Addr)]--
		*e = Entry{}
		tc.count--
		tc.unissued--
	}
	tc.active = keep
	tc.advanceTail()
	if tc.unissued == 0 {
		tc.obs.TCBurstEnd(tc.core, tc.k.Now())
	}
	tc.evicted = out
	tc.sleep()
	return out
}

// Drained reports whether no live entries remain.
func (tc *TxCache) Drained() bool { return tc.count == 0 }

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
