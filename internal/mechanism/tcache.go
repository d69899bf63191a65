package mechanism

import (
	"fmt"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
)

// tcMech is this paper's design: a per-core nonvolatile transaction cache
// beside the hierarchy. Persistent stores are copied into the TC
// non-blockingly; TX_END inserts a commit request (instantly durable — the
// TC is nonvolatile); the LLC drops persistent evictions and probes the TC
// on persistent misses; the NVM controller acknowledges drained entries.
//
// Overflow (§4.1) falls back to hardware copy-on-write: once a
// transaction sees the TC at its high-water mark, its further updates are
// written to a per-core shadow log in NVM, and its commit waits for those
// shadow writes plus a commit record — the only case where the TC design
// ever stalls a commit.
type tcMech struct {
	env  *Env
	tcs  []*txcache.TxCache
	hier *cache.Hierarchy
	g    *conflictGuard

	committed []uint64

	// Copy-on-write fall-back state, per core.
	fbActive      []bool
	fbTx          []uint64
	fbPending     [][]trace.Write // this transaction's shadow writes
	fbOutstanding []int           // shadow writes not yet durable
	fbCommit      []func()        // deferred commit waiting for drain
	shadow        []memaddr.Range
	shadowCursor  []uint64

	// Handlers bound once in newTCache (Arg: core): a shadow write
	// became durable; the per-cycle fall-back commit poll.
	fbDurableFn, fbPollFn func(uint64)

	// fallbackTxs counts transactions that overflowed to the COW path,
	// per core.
	fallbackTxs []uint64
	// cFallback mirrors the fall-back count into the metrics registry
	// (nil when metrics are disabled).
	cFallback *metrics.Counter
}

func newTCache(env *Env) Mechanism {
	m := &tcMech{
		env:           env,
		committed:     make([]uint64, env.Cores),
		fbActive:      make([]bool, env.Cores),
		fbTx:          make([]uint64, env.Cores),
		fbPending:     make([][]trace.Write, env.Cores),
		fbOutstanding: make([]int, env.Cores),
		fbCommit:      make([]func(), env.Cores),
		shadow:        make([]memaddr.Range, env.Cores),
		shadowCursor:  make([]uint64, env.Cores),
		fallbackTxs:   make([]uint64, env.Cores),
		cFallback:     env.Metrics.Counter("tc_fallback_txs"),
	}
	m.fbDurableFn = m.fallbackDurable
	m.fbPollFn = m.fallbackPoll
	m.g = newConflictGuard(env)
	for c := range m.shadowCursor {
		m.shadow[c] = memaddr.PerCoreLog(c)
		m.shadowCursor[c] = m.shadow[c].Base
	}
	durableApply := func(addr, value uint64) { env.Durable.WriteWord(addr, value) }
	for c := 0; c < env.Cores; c++ {
		tc := txcache.New(env.K, env.TC, env.Mem, durableApply)
		tc.SetProbe(env.Probe, c)
		tc.SetFlight(env.Flight)
		// Drain-burst histograms are run-wide (shared across cores):
		// the paper's claim is about the burst distribution, not any
		// one core's. A nil registry hands out nil histograms.
		tc.SetMetrics(
			env.Metrics.Histogram("tc_drain_burst_entries"),
			env.Metrics.Histogram("tc_drain_burst_cycles"),
		)
		if m.g != nil {
			// Shared-line ownership releases when the owning
			// transaction's last committed write drains out of the TC.
			core := c
			tc.SetAckHook(func(addr uint64) { m.g.onAck(core, addr) })
		}
		m.tcs = append(m.tcs, tc)
	}
	return m
}

func (m *tcMech) Kind() Kind { return TCache }

// The TCache mechanism is the one mechanism exposing its transaction
// caches to the system layer's sampler and result collector.
var _ TCIntrospector = (*tcMech)(nil)

// TC exposes core's transaction cache (stats, tests).
func (m *tcMech) TC(core int) *txcache.TxCache { return m.tcs[core] }

// TCStatsAll returns every core's transaction cache counters.
func (m *tcMech) TCStatsAll() []txcache.Stats {
	out := make([]txcache.Stats, len(m.tcs))
	for i, tc := range m.tcs {
		out[i] = tc.Stats()
	}
	return out
}

func (m *tcMech) Hooks() cache.Hooks {
	return cache.Hooks{
		// "We drop the last-level cache write-backs — these blocks are
		// simply discarded after being evicted out of the last-level
		// cache." The TC path is the only writer of persistent data.
		DropLLCEviction: func(victim cache.Line) bool { return victim.Persistent },
		// "Last level cache will issue miss requests toward not only
		// the NVM but also the transaction cache."
		SidePathProbe: func(lineAddr uint64) bool {
			for _, tc := range m.tcs {
				if tc.Probe(lineAddr) {
					return true
				}
			}
			return false
		},
		// Persistent lines never reach memory through the hierarchy,
		// so no writeback carries durable semantics.
		WritebackApply: func(lineAddr uint64) sim.Event { return sim.Event{} },
	}
}

func (m *tcMech) Attach(h *cache.Hierarchy) { m.hier = h }

func (m *tcMech) Rewrite(core int, r trace.Reader) trace.Reader { return r }

func (m *tcMech) TxBegin(core int, txID uint64) {}

// Store copies the persistent store into the TC beside the normal cache
// path. A full TC stalls the core; at the high-water mark the store takes
// the copy-on-write fall-back.
func (m *tcMech) Store(core int, txID uint64, addr, value uint64) cpu.StoreAction {
	// Shared lines pass the ownership probe before entering either
	// durability path. On a lost arbitration the transaction's TC
	// entries are discarded (they are Active, never drained) and any
	// fall-back state is dropped; in-flight shadow log writes are
	// harmless — nothing applies them without a commit record.
	switch m.g.check(core, txID, addr) {
	case gdRetry:
		return cpu.StoreAction{Retry: true}
	case gdAbort:
		m.tcs[core].EvictTx(txID)
		if m.fbActive[core] && m.fbTx[core] == txID {
			m.fbActive[core] = false
			m.fbPending[core] = nil
		}
		return cpu.StoreAction{Abort: true}
	}
	if m.fbActive[core] && m.fbTx[core] == txID {
		m.fallbackWrite(core, addr, value)
		m.g.noteWrite(core, addr)
		return cpu.StoreAction{}
	}
	switch m.tcs[core].Write(txID, addr, value) {
	case txcache.Accepted:
		m.g.noteWrite(core, addr)
		return cpu.StoreAction{}
	case txcache.Fallback:
		m.fbActive[core] = true
		m.fbTx[core] = txID
		m.fallbackTxs[core]++
		m.cFallback.Inc()
		if fr := m.env.Flight; fr.Sampled(txID) {
			fr.MarkFallback(core, txID)
		}
		// The whole transaction moves to the copy-on-write path: its
		// TC-resident entries are evicted into the shadow first (in
		// program order), so no word of this transaction has updates
		// split across the two durability paths.
		// The evicted entries were noted at their original accept; only
		// the triggering store is new.
		for _, e := range m.tcs[core].EvictTx(txID) {
			m.fallbackWrite(core, e.Addr, e.Value)
		}
		m.fallbackWrite(core, addr, value)
		m.g.noteWrite(core, addr)
		return cpu.StoreAction{}
	default: // Full
		return cpu.StoreAction{Retry: true}
	}
}

// FallbackTxs sums the per-core fall-back transaction counts.
func (m *tcMech) FallbackTxs() uint64 {
	var total uint64
	for _, n := range m.fallbackTxs {
		total += n
	}
	return total
}

// fallbackWrite sends one shadow (copy-on-write) update to NVM.
func (m *tcMech) fallbackWrite(core int, addr, value uint64) {
	slot := m.shadowCursor[core]
	m.shadowCursor[core] += 2 * memaddr.WordSize
	if m.shadowCursor[core] > m.shadow[core].End() {
		panic(fmt.Sprintf("mechanism: tcache shadow log for core %d exhausted", core))
	}
	m.fbPending[core] = append(m.fbPending[core], trace.Write{Addr: memaddr.WordAddr(addr), Value: value})
	m.fbOutstanding[core]++
	m.env.Mem.Write(memaddr.LineAddr(slot), sim.Event{}, sim.Event{Fn: m.fbDurableFn, Arg: uint64(core)})
}

// fallbackDurable retires one durable shadow write (Arg: core).
func (m *tcMech) fallbackDurable(core uint64) {
	m.fbOutstanding[core]--
	m.checkFallbackCommit(int(core))
}

// TxEnd commits: ordinarily a single commit request to the nonvolatile TC
// (no stall); for an overflowed transaction the commit waits for shadow
// durability plus a commit record.
func (m *tcMech) TxEnd(core int, txID uint64, resume sim.Event) bool {
	if m.fbActive[core] && m.fbTx[core] == txID {
		m.fbCommit[core] = func() {
			// Invariant at this point: the shadow writes are durable
			// AND the TC has drained its older committed entries, so
			// the shadow apply cannot be overwritten by a stale
			// in-flight TC drain.
			// Commit record durable: apply the shadow writes, then
			// commit the TC-resident entries — one atomic event.
			slot := m.shadowCursor[core]
			m.shadowCursor[core] += 2 * memaddr.WordSize
			pend := m.fbPending[core]
			apply := sim.Event{Fn: func(uint64) {
				for _, w := range pend {
					m.env.Durable.WriteWord(w.Addr, w.Value)
				}
				m.tcs[core].Commit(txID)
				m.committed[core]++
				// Commit-record durability is the overflowed
				// transaction's durable instant: its shadow writes just
				// applied, so shared-line ownership releases here.
				m.env.noteDurableCommit(core)
				m.g.releaseTxNow(core)
			}}
			m.env.Mem.Write(memaddr.LineAddr(slot), apply, resume)
			m.fbPending[core] = nil
			m.fbActive[core] = false
		}
		m.checkFallbackCommit(core)
		m.pollFallbackCommit(core)
		return true
	}
	m.tcs[core].Commit(txID)
	m.committed[core]++
	// The commit request to the nonvolatile TC is instantly durable, so
	// TX_END is the durable instant. Ownership of the transaction's
	// shared lines transfers to the drain-pending set and releases as
	// the acks arrive.
	m.env.noteDurableCommit(core)
	m.g.commitPending(core)
	return false
}

// checkFallbackCommit fires the deferred commit once the shadow writes
// are durable and the core's TC has drained (ordering across
// transactions: an older TC entry must not land after the shadow apply).
func (m *tcMech) checkFallbackCommit(core int) {
	if m.fbOutstanding[core] == 0 && m.tcs[core].Drained() && m.fbCommit[core] != nil {
		commit := m.fbCommit[core]
		m.fbCommit[core] = nil
		commit()
	}
}

// pollFallbackCommit re-checks the commit condition each cycle while the
// TC drains (drain completion has no callback of its own).
func (m *tcMech) pollFallbackCommit(core int) {
	if m.fbCommit[core] == nil {
		return
	}
	m.env.K.Schedule(1, sim.Event{Fn: m.fbPollFn, Arg: uint64(core)})
}

// fallbackPoll is one cycle of pollFallbackCommit (Arg: core).
func (m *tcMech) fallbackPoll(core uint64) {
	m.checkFallbackCommit(int(core))
	m.pollFallbackCommit(int(core))
}

func (m *tcMech) Drained() bool {
	for c := 0; c < m.env.Cores; c++ {
		if !m.tcs[c].Drained() || m.fbOutstanding[c] != 0 || m.fbCommit[c] != nil {
			return false
		}
	}
	return true
}

func (m *tcMech) DurablyCommitted(core int) uint64 { return m.committed[core] }

// RecoveryCost scans the nonvolatile TCs and replays their committed
// entries.
func (m *tcMech) RecoveryCost() RecoveryCost {
	scanned, writes := 0, 0
	for _, tc := range m.tcs {
		for _, e := range tc.Contents() {
			scanned++
			if e.State == txcache.Committed {
				writes++
			}
		}
	}
	return RecoveryCost{
		ScannedItems: scanned,
		NVMWrites:    writes,
		EstCycles:    estimateRecoveryCycles(scanned, writes),
	}
}

// Recover replays the nonvolatile TCs: committed entries (in FIFO order)
// are applied to the durable image; active entries belong to uncommitted
// transactions and are discarded. Overflowed transactions were applied at
// commit-record durability and need nothing here.
func (m *tcMech) Recover(durable *memimage.Image) *memimage.Image {
	out := durable.Snapshot()
	for _, tc := range m.tcs {
		for _, e := range tc.Contents() {
			if e.State == txcache.Committed {
				out.WriteWord(e.Addr, e.Value)
			}
		}
	}
	return out
}
