// Package cpu models the processor cores: a quantitative 4-wide core that
// consumes a memory-reference trace, with blocking loads, a store buffer,
// clwb/sfence semantics, and the TxID/Mode registers of §4.2. Persistence
// mechanisms observe transaction boundaries and persistent stores through
// the Persistence interface; everything else is mechanism-independent.
package cpu

import (
	"math"
	"math/bits"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/obs/txflight"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// StoreAction tells the core how to treat one persistent store.
type StoreAction struct {
	// Retry stalls the core one cycle and asks again (transaction
	// cache full, or a shared-line ownership request in flight).
	Retry bool
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
	// TxBegin observes TX_BEGIN retirement.
	TxBegin(core int, txID uint64)
	// TxEnd observes TX_END retirement. Returning true stalls the core
	// until resume fires (commit flushes). The mechanism must fire
	// resume exactly once iff it returns true, and not before TxEnd
	// returns.
	TxEnd(core int, txID uint64, resume sim.Event) bool
	// Store observes a persistent store about to leave the core.
	Store(core int, txID uint64, addr, value uint64) StoreAction
}

// NullPersistence takes no action on any event.
type NullPersistence struct{}

// TxBegin implements Persistence.
func (NullPersistence) TxBegin(int, uint64) {}

// TxEnd implements Persistence.
func (NullPersistence) TxEnd(int, uint64, sim.Event) bool { return false }

// Store implements Persistence.
func (NullPersistence) Store(int, uint64, uint64, uint64) StoreAction { return StoreAction{} }

// Config sizes one core.
type Config struct {
	// IssueWidth is instructions retired per cycle (Table 2: 4).
	IssueWidth int
	// StoreBuffer bounds outstanding stores.
	StoreBuffer int
	// MLP bounds outstanding independent loads — the out-of-order
	// window's memory-level parallelism. Dependent (pointer-chase)
	// loads always serialize behind outstanding loads.
	MLP int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.StoreBuffer == 0 {
		c.StoreBuffer = 16
	}
	if c.MLP == 0 {
		c.MLP = 8
	}
	return c
}

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
	// TCFullStall: a persistent store was rejected by the mechanism
	// (transaction cache full) and retried.
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

	// Stall cycles by cause.
	StallLoad       uint64
	StallStoreBuf   uint64
	StallStoreRetry uint64
	StallFence      uint64
	StallCommit     uint64
	StallAbort      uint64

	// Contention outcomes: transactions squashed by shared-line
	// conflict arbitration (TxAborts), replays started (TxRetries —
	// equal to TxAborts under abort-and-retry), and the instructions
	// the aborted attempts retired before being squashed
	// (WastedInstructions; these also remain in Instructions, so IPC
	// reflects the wasted work's cost).
	TxAborts           uint64
	TxRetries          uint64
	WastedInstructions uint64

	// Breakdown attributes each active cycle to exactly one category
	// (the stall counters above may coexist with partial issue; the
	// breakdown is the exhaustive per-cycle accounting).
	Breakdown CycleBreakdown

	// DoneAt is the cycle the core fully quiesced (0 while running).
	DoneAt uint64
}

// Core executes one trace stream. Register with the kernel to run.
type Core struct {
	k    *sim.Kernel
	id   int
	cfg  Config
	hier *cache.Hierarchy
	pers Persistence
	rd   trace.Reader
	// onStoreRetire applies a store's value to the live (volatile
	// shadow) image the moment it enters the memory system.
	onStoreRetire func(addr, value uint64)

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

	// Conflict-abort state: while aborting, the core sits out an
	// exponential-backoff window (a scheduled wake event ends it, so
	// fast-forward skips the stall) before replaying from txBuf.
	aborting      bool
	abortAttempts int
	txInstrBase   uint64 // Instructions at TX_BEGIN, for wasted-work accounting

	mode uint64 // Mode/TxID register: nonzero inside a transaction

	outStores  int
	outFlushes int
	outLoads   int
	fenceWait  bool
	commitWait bool

	// probe is the observability recorder (nil when disabled — the
	// zero-overhead path). txStart remembers the cycle the current
	// transaction's TX_BEGIN retired, for the lifecycle span.
	probe   *obs.Probe
	txStart uint64

	// commitFrom is the cycle TX_END retired into a commit wait; the
	// resume handler measures the wait from it.
	commitFrom uint64

	// Completion handlers, bound once in New (see sim.Event).
	loadDoneFn, storeDoneFn, flushDoneFn, resumeFn, wakeFn func(uint64)

	// hTxLat and hCommitWait stream per-transaction latencies into the
	// metrics registry (nil when metrics are disabled — same
	// nil-pointer discipline as probe).
	hTxLat      *metrics.Histogram
	hCommitWait *metrics.Histogram

	// fr is the transaction flight recorder (nil when sampling is off):
	// the core marks flight begin and commit checkpoints.
	fr *txflight.Recorder

	stats Stats
}

// New builds a core and registers it with the kernel. onStoreRetire may
// be nil.
func New(k *sim.Kernel, id int, cfg Config, hier *cache.Hierarchy, pers Persistence,
	rd trace.Reader, onStoreRetire func(addr, value uint64)) *Core {
	cfg = cfg.WithDefaults()
	if pers == nil {
		pers = NullPersistence{}
	}
	c := &Core{k: k, id: id, cfg: cfg, hier: hier, pers: pers, rd: rd, onStoreRetire: onStoreRetire}
	c.loadDoneFn = c.loadDone
	c.storeDoneFn = c.storeDone
	c.flushDoneFn = c.flushDone
	c.resumeFn = c.resume
	c.wakeFn = c.wake
	k.Register(c)
	return c
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// SetProbe attaches the observability recorder (nil disables probing).
func (c *Core) SetProbe(p *obs.Probe) { c.probe = p }

// SetFlight attaches the transaction flight recorder (nil disables
// flight sampling).
func (c *Core) SetFlight(fr *txflight.Recorder) { c.fr = fr }

// SetMetrics attaches the streaming histograms for transaction latency
// (TX_BEGIN retirement to commit completion) and commit-wait stalls
// (TX_END to mechanism resume). Nil histograms disable the observations.
func (c *Core) SetMetrics(txLat, commitWait *metrics.Histogram) {
	c.hTxLat = txLat
	c.hCommitWait = commitWait
}

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

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
			c.computeLeft = c.cur.N
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
		c.computeLeft = rec.N
	}
	return true
}

// abortTx squashes the open transaction after a lost conflict
// arbitration: the in-flight store is discarded (it stays in txBuf),
// the replay cursor rewinds to TX_BEGIN, and the core enters a bounded
// exponential backoff — 8·2^min(attempts-1,6) cycles plus a small
// deterministic per-core jitter so symmetric losers desynchronize. The
// wake is a scheduled kernel event, so quiescence fast-forward skips
// the stall window.
func (c *Core) abortTx() {
	c.stats.TxAborts++
	c.stats.TxRetries++
	c.stats.WastedInstructions += c.stats.Instructions - c.txInstrBase
	c.abortAttempts++
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

// wake ends an abort backoff window.
func (c *Core) wake(uint64) { c.aborting = false }

func (c *Core) retire() { c.hasCur = false }

// finishCheck stamps DoneAt the moment the core quiesces. It runs at the
// end of every tick and after every completion callback, so DoneAt is
// exact regardless of which event finished last.
func (c *Core) finishCheck() {
	if c.stats.DoneAt == 0 && c.Finished() {
		c.stats.DoneAt = c.k.Now()
	}
}

// Tick implements sim.Tickable: retire up to IssueWidth instructions,
// honouring stall conditions. Each tick of an unfinished core attributes
// exactly one CycleBreakdown bucket — the condition that terminated the
// cycle (partial issue followed by a stall is attributed to the stall).
func (c *Core) Tick(now uint64) {
	defer func() {
		c.peekExhaustion()
		c.finishCheck()
	}()
	if c.Finished() {
		return
	}
	bd := &c.stats.Breakdown
	if c.aborting {
		c.stats.StallAbort++
		bd.AbortStall++
		return
	}
	if c.commitWait {
		c.stats.StallCommit++
		bd.CommitWait++
		return
	}
	if c.fenceWait {
		if c.outStores == 0 && c.outFlushes == 0 {
			c.fenceWait = false
		} else {
			c.stats.StallFence++
			bd.FenceStall++
			return
		}
	}
	budget := c.cfg.IssueWidth
	for budget > 0 {
		if !c.fetch() {
			if budget == c.cfg.IssueWidth {
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
				c.stats.StallLoad++
				bd.LoadStall++
				return
			}
			if !c.cur.Dep && c.outLoads >= c.cfg.MLP {
				c.stats.StallLoad++
				bd.LoadStall++
				return
			}
			c.issueLoad(c.cur.Addr, now)
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindStore:
			if c.outStores >= c.cfg.StoreBuffer {
				c.stats.StallStoreBuf++
				bd.StoreBufStall++
				return
			}
			persistent := memaddr.IsPersistent(c.cur.Addr)
			act := StoreAction{}
			if persistent {
				act = c.pers.Store(c.id, c.mode, c.cur.Addr, c.cur.Value)
				if act.Abort {
					c.abortTx()
					c.stats.StallAbort++
					bd.AbortStall++
					return
				}
				if act.Retry {
					c.stats.StallStoreRetry++
					bd.TCFullStall++
					return
				}
			}
			c.outStores++
			// The live image takes the value the moment the store
			// enters the memory system.
			if c.onStoreRetire != nil {
				c.onStoreRetire(c.cur.Addr, c.cur.Value)
			}
			c.hier.Access(c.id, c.cur.Addr, true, persistent, act.TxTag, act.Uncommitted,
				sim.Event{Fn: c.storeDoneFn})
			c.stats.Stores++
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindTxBegin:
			c.mode = c.cur.TxID
			c.txStart = now
			c.txInstrBase = c.stats.Instructions
			if c.fr.Sampled(c.cur.TxID) {
				c.fr.Begin(c.id, c.cur.TxID, now)
			}
			c.pers.TxBegin(c.id, c.cur.TxID)
			c.stats.Instructions++
			budget--
			c.retire()

		case trace.KindTxEnd:
			// Commit retires in order: the transaction's loads and
			// stores must have completed first.
			if c.outStores > 0 || c.outLoads > 0 {
				c.stats.StallCommit++
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
			c.probe.Span(obs.KTx, c.id, id, c.txStart, now, 0)
			c.hCommitWait.Observe(0)
			c.hTxLat.Observe(now - c.txStart)
			c.fr.Commit(c.id, id, now, now)
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

// Idle implements sim.Quiescer: report true only when Tick is provably a
// no-op at the current state, apart from the per-cycle stall accounting
// that SkipCycles applies in bulk. The conditions mirror Tick's early
// returns exactly, in Tick's precedence order:
//
//   - finished: Tick returns immediately;
//   - commit wait: the mechanism's resume callback (a kernel event) is
//     the only exit;
//   - fence wait with outstanding stores/flushes: their completion
//     callbacks (events) are the only exits;
//   - blocked load at the head of the trace: dependent behind an
//     outstanding load, or independent at the MLP limit;
//   - store at the head with a full store buffer (checked before the
//     mechanism sees the store, so Tick touches nothing else);
//   - trace exhausted, waiting for outstanding accesses to drain.
//
// A persistent store that would be presented to the mechanism reports
// busy: pers.Store may mutate mechanism state (TC full-reject counters,
// probe instants) every retry cycle, so it is not provably a no-op.
func (c *Core) Idle() bool {
	if c.Finished() {
		return true
	}
	if c.aborting {
		// The backoff wake is a scheduled event; until it fires, Tick
		// only accrues abort-stall cycles.
		return true
	}
	if c.commitWait {
		return true
	}
	if c.fenceWait && (c.outStores > 0 || c.outFlushes > 0) {
		return true
	}
	if !c.hasCur {
		// Exhausted with outstanding accesses: pure drain wait. A core
		// that could still fetch makes progress.
		return c.exhausted
	}
	switch c.cur.Kind {
	case trace.KindLoad:
		if c.cur.Dep {
			return c.outLoads > 0
		}
		return c.outLoads >= c.cfg.MLP
	case trace.KindStore:
		return c.outStores >= c.cfg.StoreBuffer
	}
	return false
}

// SkipCycles implements sim.CycleSkipper: bulk-charge n skipped cycles
// to exactly the stall bucket n idle Ticks would have accrued one cycle
// at a time (the cases, and their precedence, mirror Idle and Tick).
func (c *Core) SkipCycles(n uint64) {
	if c.Finished() {
		return
	}
	bd := &c.stats.Breakdown
	switch {
	case c.aborting:
		c.stats.StallAbort += n
		bd.AbortStall += n
	case c.commitWait:
		c.stats.StallCommit += n
		bd.CommitWait += n
	case c.fenceWait && (c.outStores > 0 || c.outFlushes > 0):
		// The guard mirrors Tick: a fence whose outstanding accesses
		// already completed is cleared on the next Tick and the cycle
		// is charged to whatever the head record stalls on instead.
		c.stats.StallFence += n
		bd.FenceStall += n
	case c.hasCur && c.cur.Kind == trace.KindLoad:
		c.stats.StallLoad += n
		bd.LoadStall += n
	case c.hasCur && c.cur.Kind == trace.KindStore:
		c.stats.StallStoreBuf += n
		bd.StoreBufStall += n
	default:
		bd.DrainWait += n
	}
}

// peekExhaustion discovers end-of-stream eagerly so Finished (and DoneAt)
// reflect the cycle the last instruction retired, not one cycle later.
func (c *Core) peekExhaustion() {
	if !c.hasCur && !c.exhausted {
		c.fetch()
	}
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
	c.finishCheck()
}

// storeDone completes a store: it frees a store-buffer entry.
func (c *Core) storeDone(uint64) {
	c.outStores--
	c.finishCheck()
}

// flushDone completes a clwb/clflush.
func (c *Core) flushDone(uint64) {
	c.outFlushes--
	c.finishCheck()
}

// resume ends a commit wait (Arg: the committing transaction's id).
func (c *Core) resume(id uint64) {
	c.commitWait = false
	c.stats.Transactions++
	end := c.k.Now()
	c.probe.Span(obs.KCommitWait, c.id, id, c.commitFrom, end, 0)
	c.probe.Span(obs.KTx, c.id, id, c.txStart, end, 0)
	c.hCommitWait.Observe(end - c.commitFrom)
	c.hTxLat.Observe(end - c.txStart)
	c.fr.Commit(c.id, id, c.commitFrom, end)
	c.finishCheck()
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
