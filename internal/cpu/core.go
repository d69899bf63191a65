// Package cpu models the processor cores: a quantitative 4-wide core that
// consumes a memory-reference trace, with blocking loads, a store buffer,
// clwb/sfence semantics, and the TxID/Mode registers of §4.2. Persistence
// mechanisms observe transaction commits and persistent stores through
// the Persistence interface; everything else is mechanism-independent.
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// StoreAction tells the core how to treat one persistent store.
type StoreAction struct {
	// Retry stalls the core one cycle and asks again: the transaction
	// cache is full, or the line arbiter just decided a shared-line
	// ownership request (its one-cycle arbitration stall).
	Retry bool
	// Park, with Retry, promises that every retry returns the same
	// answer with the same side effects until the mechanism fires the
	// store's wake Event (exactly once, never before Store returns), so
	// the core sleeps until then instead of asking every cycle.
	Park bool
	// Abort squashes the current transaction: the core lost a
	// shared-line conflict arbitration. It discards the in-flight
	// record, waits out a bounded exponential backoff, and replays the
	// transaction from TX_BEGIN out of its replay buffer.
	Abort bool
	// TxTag and Uncommitted tag the store's cache line for mechanisms
	// that track transaction ownership in the hierarchy (Kiln).
	TxTag       uint64
	Uncommitted bool
}

// Persistence is the mechanism-facing contract. The zero-value
// NullPersistence is the no-persistence baseline.
type Persistence interface {
	// TxEnd observes TX_END retirement. Returning true stalls the core
	// until resume fires (commit flushes). The mechanism must fire
	// resume exactly once iff it returns true, and not before TxEnd
	// returns.
	TxEnd(core int, txID uint64, resume sim.Event) bool
	// Store observes a persistent store about to leave the core. wake
	// is fired by the mechanism iff it answers Retry with Park.
	Store(core int, txID uint64, addr, value uint64, wake sim.Event) StoreAction
}

// NullPersistence takes no action on any event.
type NullPersistence struct{}

// TxEnd implements Persistence.
func (NullPersistence) TxEnd(int, uint64, sim.Event) bool { return false }

// Store implements Persistence.
func (NullPersistence) Store(int, uint64, uint64, uint64, sim.Event) StoreAction {
	return StoreAction{}
}

// The Table 2 core: IssueWidth instructions retire per cycle, and at
// most StoreBuffer stores are outstanding.
const (
	IssueWidth  = 4
	StoreBuffer = 16
)

// CycleBreakdown attributes every cycle of a core's run to exactly one
// category: each Tick of an unfinished core increments one bucket, and
// Idle is filled at collection time to the end of the measurement
// window, so the buckets sum to the window (±1 cycle of rounding at the
// finish boundary). This decomposes an end-of-run figure like "98.5% of
// Optimal" into which stall category costs the missing fraction.
type CycleBreakdown struct {
	// Compute: the core retired instructions (or exhausted its issue
	// width) without hitting a stall.
	Compute uint64
	// LoadStall: a load blocked on dependence or the MLP window.
	LoadStall uint64
	// StoreBufStall: the store buffer was full.
	StoreBufStall uint64
	// TCFullStall: a persistent store was rejected by the mechanism and
	// retried — the transaction cache was full, or the line arbiter
	// held the store one cycle for a shared-line arbitration.
	TCFullStall uint64
	// FenceStall: an sfence waited on outstanding stores/flushes.
	FenceStall uint64
	// CommitWait: TX_END waited on the persistence mechanism (or on its
	// own transaction's outstanding accesses).
	CommitWait uint64
	// DrainWait: the trace is exhausted but outstanding memory
	// operations are still completing.
	DrainWait uint64
	// AbortStall: the core sat out a conflict-abort backoff window
	// before replaying the squashed transaction.
	AbortStall uint64
	// Idle: cycles after this core finished, up to the end of the
	// measurement window (filled at collection time).
	Idle uint64
}

// Busy sums the non-idle buckets: the cycles the core was attributed
// while running.
func (b CycleBreakdown) Busy() uint64 {
	return b.Compute + b.LoadStall + b.StoreBufStall + b.TCFullStall +
		b.FenceStall + b.CommitWait + b.DrainWait + b.AbortStall
}

// Total sums every bucket including Idle.
func (b CycleBreakdown) Total() uint64 { return b.Busy() + b.Idle }

// BreakdownCategories names the buckets in presentation order, aligned
// with CycleBreakdown.Values.
var BreakdownCategories = []string{
	"compute", "load-stall", "storebuf-stall", "tc-full-stall",
	"fence-stall", "commit-wait", "drain-wait", "abort-stall", "idle",
}

// Values returns the buckets in BreakdownCategories order.
func (b CycleBreakdown) Values() []uint64 {
	return []uint64{b.Compute, b.LoadStall, b.StoreBufStall, b.TCFullStall,
		b.FenceStall, b.CommitWait, b.DrainWait, b.AbortStall, b.Idle}
}

// Stats accumulates one core's activity.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Transactions uint64

	PersistentLoads          uint64
	PersistentLoadLatencySum uint64
	// PloadHist buckets persistent-load latencies by log2: bucket i
	// counts loads with latency in [2^(i-1), 2^i) cycles (bucket 0 is
	// zero-latency; the last bucket is open-ended). Drives tail-latency
	// percentiles beyond Figure 10's mean.
	PloadHist [18]uint64

	// Contention outcomes: transactions squashed by shared-line
	// conflict arbitration (TxAborts; each one replays from TX_BEGIN)
	// and the instructions the aborted attempts retired before being
	// squashed (WastedInstructions; these also remain in Instructions,
	// so IPC reflects the wasted work's cost).
	TxAborts           uint64
	WastedInstructions uint64

	// Breakdown attributes each active cycle to exactly one category:
	// the core's stall ledger.
	Breakdown CycleBreakdown

	// DoneAt is the cycle the core fully quiesced (0 while running).
	DoneAt uint64
}

// Core executes one trace stream. It registers with the kernel, which
// ticks it on every cycle it is awake.
type Core struct {
	k  *sim.Kernel
	id int
	// mlp bounds outstanding independent loads: the out-of-order
	// window's memory-level parallelism. Dependent (pointer-chase)
	// loads always serialize behind outstanding loads.
	mlp  int
	hier *cache.Hierarchy
	pers Persistence
	rd   trace.Reader
	// onStoreRetire applies a store's value to the live (volatile
	// shadow) image the moment it enters the memory system, and returns
	// the word it overwrote.
	onStoreRetire func(addr, value uint64) uint64
	// onFinish runs the moment the core finishes (where DoneAt is
	// stamped), so the machine's all-finished test need not poll cores.
	onFinish func()

	cur         trace.Record
	hasCur      bool
	computeLeft int
	exhausted   bool

	// Transaction replay buffer: every record fetched while inside a
	// transaction is retained until the TX_END retires, so a
	// conflict-aborted transaction can re-execute from TX_BEGIN without
	// re-pulling the (possibly streaming, non-rewindable) reader.
	// replayIdx tracks the consumed prefix; on abort it rewinds to 0.
	txBuf     []trace.Record
	replayIdx int
	inTx      bool
	// undo holds (addr, overwritten live word) for each persistent store
	// the open transaction retired, in retire order. An abort replays it
	// in reverse, so the squashed attempt's values leave the live image
	// before another core can store to the lines it releases.
	undo []trace.Write

	// Conflict-abort state: while aborting, the core sits out an
	// exponential-backoff window (a scheduled wake event ends it, so
	// the core sleeps through the stall) before replaying from txBuf.
	// parked marks the head store as retried with Park: Tick does not
	// present it again, and the core sleeps, until the mechanism fires
	// the same wake handler.
	aborting      bool
	parked        bool
	abortAttempts int
	txInstrBase   uint64 // Instructions at TX_BEGIN, for wasted-work accounting

	mode uint64 // Mode/TxID register: nonzero inside a transaction

	outStores  int
	outFlushes int
	outLoads   int
	fenceWait  bool
	commitWait bool

	// obs observes the core (nil when disabled — the zero-overhead
	// path). txStart remembers the cycle the current transaction's
	// TX_BEGIN retired, for its lifecycle report.
	obs     *obs.Sink
	txStart uint64

	// commitFrom is the cycle TX_END retired into a commit wait; the
	// resume handler measures the wait from it.
	commitFrom uint64

	// Completion handlers, bound once in New (see sim.Event).
	loadDoneFn, storeDoneFn, flushDoneFn, resumeFn, wakeFn func(uint64)

	// slot is the core's kernel id. Every cycle up to settled is
	// charged. While the core sleeps, later cycles are owed to the
	// bucket its skipped Ticks would have charged (nil while it is awake
	// or finished, and always with fast-forward off). held marks a sleep
	// that holds the kernel's clock (the TX_END drain wait).
	slot    int
	settled uint64
	owed    *uint64
	held    bool

	stats Stats
}

// New builds a core with an MLP window of mlp independent loads and
// registers it with the kernel. onStoreRetire and onFinish may be nil; o
// observes the core (nil disables observation).
func New(k *sim.Kernel, id, mlp int, hier *cache.Hierarchy, pers Persistence,
	rd trace.Reader, onStoreRetire func(addr, value uint64) uint64, onFinish func(), o *obs.Sink) *Core {
	if mlp <= 0 {
		panic(fmt.Sprintf("cpu: MLP window %d must be positive", mlp))
	}
	if pers == nil {
		pers = NullPersistence{}
	}
	c := &Core{k: k, id: id, mlp: mlp, hier: hier, pers: pers, rd: rd, onStoreRetire: onStoreRetire, onFinish: onFinish, obs: o}
	c.loadDoneFn = c.loadDone
	c.storeDoneFn = c.storeDone
	c.flushDoneFn = c.flushDone
	c.resumeFn = c.resume
	c.wakeFn = c.wake
	c.slot = k.Register(c)
	c.changed(k.Now())
	return c
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Stats returns a copy of the counters, with the cycles slept through so
// far charged. Call it between kernel steps.
func (c *Core) Stats() Stats {
	c.settle(c.k.Now())
	return c.stats
}

// Mode returns the TxID/Mode register (0 = normal mode).
func (c *Core) Mode() uint64 { return c.mode }

// Finished reports whether the trace is exhausted and every outstanding
// access has completed.
func (c *Core) Finished() bool {
	return c.exhausted && !c.hasCur && !c.aborting && c.outStores == 0 &&
		c.outFlushes == 0 && c.outLoads == 0 && !c.commitWait
}

// fetch pulls the next record if none is current: first from the
// unconsumed tail of the transaction replay buffer (after an abort),
// then from the reader. Reader records fetched inside a transaction are
// appended to the buffer as they arrive, so the buffer always holds the
// full consumed prefix of the open transaction.
func (c *Core) fetch() bool {
	if c.hasCur {
		return true
	}
	if c.replayIdx < len(c.txBuf) {
		c.cur = c.txBuf[c.replayIdx]
		c.replayIdx++
		c.hasCur = true
		if c.cur.Kind == trace.KindCompute {
			c.computeLeft = int(c.cur.N)
		}
		return true
	}
	rec, ok := c.rd.Next()
	if !ok {
		c.exhausted = true
		return false
	}
	if rec.Kind == trace.KindTxBegin {
		c.inTx = true
		c.txBuf = c.txBuf[:0]
		c.replayIdx = 0
	}
	if c.inTx {
		c.txBuf = append(c.txBuf, rec)
		c.replayIdx++
	}
	c.cur = rec
	c.hasCur = true
	if rec.Kind == trace.KindCompute {
		c.computeLeft = int(rec.N)
	}
	return true
}

// abortTx squashes the open transaction after a lost conflict
// arbitration: the in-flight store is discarded (it stays in txBuf), the
// retired stores' live words are restored, newest first, the replay
// cursor rewinds to TX_BEGIN, and the core enters a bounded
// exponential backoff — 8·2^min(attempts-1,6) cycles plus a small
// deterministic per-core jitter so symmetric losers desynchronize. The
// wake is a scheduled kernel event, so the core sleeps through the
// stall window.
func (c *Core) abortTx() {
	c.stats.TxAborts++
	c.stats.WastedInstructions += c.stats.Instructions - c.txInstrBase
	c.abortAttempts++
	for i := len(c.undo) - 1; i >= 0; i-- {
		c.onStoreRetire(c.undo[i].Addr, c.undo[i].Value)
	}
	c.undo = c.undo[:0]
	c.mode = 0
	c.hasCur = false
	c.computeLeft = 0
	c.replayIdx = 0
	c.aborting = true
	attempts := c.abortAttempts - 1
	if attempts > 6 {
		attempts = 6
	}
	backoff := (uint64(8) << uint(attempts)) + uint64((c.id*7)%8)
	c.k.Schedule(backoff, sim.Event{Fn: c.wakeFn})
}

// wake ends an abort backoff window or a parked store's sleep.
func (c *Core) wake(uint64) {
	c.aborting = false
	c.parked = false
	c.changed(c.k.Now() - 1)
}

func (c *Core) retire() { c.hasCur = false }

// changed runs after every state change — at the end of every tick and of
// every completion handler — with the last cycle the core has been
// charged for: the tick's own cycle, or the previous one for a handler,
// since handlers run in the event phase before the cycle's ticks. It
// settles what the skipped Ticks since the last change owe, stamps DoneAt
// and calls onFinish the moment the core quiesces (exact regardless of
// which event finished last), and re-evaluates idleCharge's answers:
// whether the core sleeps, the bucket its skipped Ticks owe, and whether
// the sleep holds the kernel's clock. With fast-forward off the core
// never sleeps, nothing is owed and every Tick runs in full.
func (c *Core) changed(charged uint64) {
	c.settle(charged)
	if c.stats.DoneAt == 0 && c.Finished() {
		c.stats.DoneAt = c.k.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
	}
	bucket, idle, hold := c.idleCharge()
	asleep := c.k.Sleep(c.slot, idle)
	if !asleep {
		bucket = nil
	}
	c.owed = bucket
	hold = hold && asleep
	if hold != c.held {
		c.held = hold
		c.k.Hold(hold)
	}
}

// settle charges the cycles whose Ticks were no-ops, up to and including
// cycle through, to the bucket the core owes them.
func (c *Core) settle(through uint64) {
	if through <= c.settled {
		return
	}
	n := through - c.settled
	c.settled = through
	if c.owed != nil {
		*c.owed += n
	}
}

// Tick implements sim.Tickable: retire up to IssueWidth instructions,
// honouring stall conditions. Each tick of an unfinished core attributes
// exactly one CycleBreakdown bucket — the condition that terminated the
// cycle (partial issue followed by a stall is attributed to the stall).
func (c *Core) Tick(now uint64) {
	defer c.ticked(now)
	if c.Finished() {
		return
	}
	bd := &c.stats.Breakdown
	if c.aborting {
		bd.AbortStall++
		return
	}
	if c.commitWait {
		bd.CommitWait++
		return
	}
	if c.fenceWait {
		if c.outStores == 0 && c.outFlushes == 0 {
			c.fenceWait = false
		} else {
			bd.FenceStall++
			return
		}
	}
	budget := IssueWidth
	for budget > 0 {
		if !c.fetch() {
			if budget == IssueWidth {
				// Nothing retired this cycle: the core only waits for
				// its outstanding accesses to drain.
				bd.DrainWait++
			} else {
				bd.Compute++
			}
			return
		}
		switch c.cur.Kind {
		case trace.KindCompute:
			take := budget
			if take > c.computeLeft {
				take = c.computeLeft
			}
			c.computeLeft -= take
			budget -= take
			c.stats.Instructions += uint64(take)
			if c.computeLeft == 0 {
				c.retire()
			}

		case trace.KindLoad:
			// Dependent loads serialize behind every outstanding
			// load; independent loads overlap up to the MLP window.
			if c.cur.Dep && c.outLoads > 0 {
				bd.LoadStall++
				return
			}
			if !c.cur.Dep && c.outLoads >= c.mlp {
				bd.LoadStall++
				return
			}
			c.issueLoad(c.cur.Addr, now)
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindStore:
			if c.outStores >= StoreBuffer {
				bd.StoreBufStall++
				return
			}
			if c.parked {
				// The mechanism promised the same answer until wake.
				bd.TCFullStall++
				return
			}
			persistent := memaddr.IsPersistent(c.cur.Addr)
			act := StoreAction{}
			if persistent {
				act = c.pers.Store(c.id, c.mode, c.cur.Addr, c.cur.Value, sim.Event{Fn: c.wakeFn})
				c.parked = act.Retry && act.Park
				if act.Abort {
					c.abortTx()
					bd.AbortStall++
					return
				}
				if act.Retry {
					bd.TCFullStall++
					return
				}
			}
			c.outStores++
			// The live image takes the value the moment the store
			// enters the memory system.
			if c.onStoreRetire != nil {
				old := c.onStoreRetire(c.cur.Addr, c.cur.Value)
				if persistent && c.mode != 0 {
					c.undo = append(c.undo, trace.Write{Addr: c.cur.Addr, Value: old})
				}
			}
			c.hier.Access(c.id, c.cur.Addr, true, persistent, act.TxTag, act.Uncommitted,
				sim.Event{Fn: c.storeDoneFn})
			c.stats.Stores++
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindTxBegin:
			c.mode = c.cur.TxID
			c.undo = c.undo[:0]
			c.txStart = now
			c.txInstrBase = c.stats.Instructions
			c.obs.TxBegin(c.id, c.cur.TxID, now)
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindTxEnd:
			// Commit retires in order: the transaction's loads and
			// stores must have completed first.
			if c.outStores > 0 || c.outLoads > 0 {
				bd.CommitWait++
				return
			}
			id := c.cur.TxID
			c.stats.Instructions++
			c.retire()
			c.mode = 0
			// The transaction is past its conflict window: drop the
			// replay buffer and reset the backoff ladder.
			c.inTx = false
			c.txBuf = c.txBuf[:0]
			c.replayIdx = 0
			c.abortAttempts = 0
			// The core stalls until resume fires, so no later TX_BEGIN
			// can move txStart before the wait's latencies are taken.
			c.commitFrom = now
			if c.pers.TxEnd(c.id, id, sim.Event{Fn: c.resumeFn, Arg: id}) {
				c.commitWait = true
				bd.CommitWait++
				return
			}
			c.stats.Transactions++
			c.obs.TxCommit(c.id, id, c.txStart, now, now, false)
			budget--

		case trace.KindCLWB, trace.KindCLFlush:
			// Flushes are posted: they flow down the memory pipeline
			// without stalling retirement. Ordering against later
			// code is the job of sfence.
			c.outFlushes++
			flush := c.hier.Flush
			if c.cur.Kind == trace.KindCLFlush {
				flush = c.hier.FlushInv
			}
			flush(c.id, c.cur.Addr, sim.Event{Fn: c.flushDoneFn})
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindSFence:
			c.stats.Instructions++
			c.retire()
			if c.outStores > 0 || c.outFlushes > 0 {
				c.fenceWait = true
				bd.FenceStall++
				return
			}
			budget--
		}
	}
	bd.Compute++
}

// idleCharge reports whether the next Tick is a provable no-op apart
// from per-cycle stall accounting (idle), the CycleBreakdown bucket such a
// Tick charges (nil when it charges nothing: the core finished), and
// whether the core must hold the kernel's clock while it sleeps (hold).
// Every idle state sleeps. One of them holds: the TX_END drain wait, whose
// Ticks the kernel skips and whose cycles it may jump, but counts as
// stepped rather than skipped, so SkippedCycles reads as it did when the
// waiting core ticked. The
// cases mirror Tick's early returns exactly, in Tick's precedence order:
//
//   - finished: Tick returns immediately;
//   - abort backoff: the scheduled wake event is the only exit;
//   - commit wait: the mechanism's resume callback (a kernel event) is
//     the only exit;
//   - fence wait with outstanding stores/flushes: their completion
//     callbacks (events) are the only exits;
//   - trace exhausted, waiting for outstanding accesses to drain;
//   - blocked load at the head of the trace: dependent behind an
//     outstanding load, or independent at the MLP limit;
//   - store at the head with a full store buffer (checked before the
//     mechanism sees the store, so Tick touches nothing else);
//   - parked store at the head: Tick does not present it again (the
//     mechanism promised every retry the same answer until it fires
//     wake, and settles its own per-retry side effects, the TC's
//     full-reject count, for the parked cycles);
//   - TX_END at the head, no fence pending, with the transaction's own
//     stores or loads outstanding: their completions are the only
//     exits. This case holds the clock.
//
// Any other persistent store that would be presented to the mechanism
// is not idle: pers.Store may mutate mechanism state every retry cycle.
// A fence whose accesses already completed falls through to the head
// record: Tick clears it and charges whatever that record stalls on.
func (c *Core) idleCharge() (bucket *uint64, idle, hold bool) {
	bd := &c.stats.Breakdown
	switch {
	case c.Finished():
		return nil, true, false
	case c.aborting:
		return &bd.AbortStall, true, false
	case c.commitWait:
		return &bd.CommitWait, true, false
	case c.fenceWait && (c.outStores > 0 || c.outFlushes > 0):
		return &bd.FenceStall, true, false
	case !c.hasCur:
		// A core that could still fetch makes progress.
		if c.exhausted {
			return &bd.DrainWait, true, false
		}
	case c.cur.Kind == trace.KindLoad:
		if c.cur.Dep && c.outLoads > 0 || !c.cur.Dep && c.outLoads >= c.mlp {
			return &bd.LoadStall, true, false
		}
	case c.cur.Kind == trace.KindStore:
		if c.outStores >= StoreBuffer {
			return &bd.StoreBufStall, true, false
		}
		if c.parked {
			return &bd.TCFullStall, true, false
		}
	case c.cur.Kind == trace.KindTxEnd:
		if !c.fenceWait && (c.outStores > 0 || c.outLoads > 0) {
			return &bd.CommitWait, true, true
		}
	}
	return nil, false, false
}

// ticked ends every Tick. It discovers end-of-stream eagerly, so Finished
// (and DoneAt) reflect the cycle the last instruction retired, not one
// cycle later, then re-evaluates sleep.
func (c *Core) ticked(now uint64) {
	if !c.hasCur && !c.exhausted {
		c.fetch()
	}
	c.changed(now)
}

// issueLoad sends a load into the hierarchy. Its completion Event
// carries the issue cycle shifted left once, with the low bit marking a
// persistent load.
func (c *Core) issueLoad(addr uint64, now uint64) {
	c.stats.Loads++
	persistent := memaddr.IsPersistent(addr)
	c.outLoads++
	arg := now << 1
	if persistent {
		arg |= 1
	}
	c.hier.Access(c.id, addr, false, persistent, 0, false, sim.Event{Fn: c.loadDoneFn, Arg: arg})
}

// loadDone completes a load; persistent loads record their latency.
func (c *Core) loadDone(arg uint64) {
	c.outLoads--
	if arg&1 != 0 {
		lat := c.k.Now() - arg>>1
		c.stats.PersistentLoads++
		c.stats.PersistentLoadLatencySum += lat
		idx := bits.Len64(lat)
		if idx >= len(c.stats.PloadHist) {
			idx = len(c.stats.PloadHist) - 1
		}
		c.stats.PloadHist[idx]++
	}
	c.changed(c.k.Now() - 1)
}

// storeDone completes a store: it frees a store-buffer entry.
func (c *Core) storeDone(uint64) {
	c.outStores--
	c.changed(c.k.Now() - 1)
}

// flushDone completes a clwb/clflush.
func (c *Core) flushDone(uint64) {
	c.outFlushes--
	c.changed(c.k.Now() - 1)
}

// resume ends a commit wait (Arg: the committing transaction's id).
func (c *Core) resume(id uint64) {
	c.commitWait = false
	c.stats.Transactions++
	c.obs.TxCommit(c.id, id, c.txStart, c.commitFrom, c.k.Now(), true)
	c.changed(c.k.Now() - 1)
}

// PloadPercentile returns an upper bound on the given percentile of the
// persistent-load latency distribution, using the log2 histogram
// buckets. The histogram population is authoritative: an empty (or
// all-zero) histogram yields 0 regardless of the PersistentLoads
// counter, p <= 0 (or NaN) yields 0, and p >= 1 is clamped to the
// maximum — so the function never walks off the end of the buckets.
func PloadPercentile(s Stats, p float64) uint64 {
	var total uint64
	for _, n := range s.PloadHist {
		total += n
	}
	if total == 0 || math.IsNaN(p) || p <= 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, n := range s.PloadHist {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			return (uint64(1) << uint(i)) - 1
		}
	}
	// Unreachable: target <= total guarantees the loop returns.
	return ^uint64(0)
}

// MergeHist sums two histograms (cross-core aggregation).
func MergeHist(a, b [18]uint64) [18]uint64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}
