package mechanism

import (
	"fmt"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
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
	env *Env
	tcs []*txcache.TxCache
	fb  []fallback

	// waiting lists the cores whose overflowed commit waits, in TX_END
	// order; TCache holds the kernel's clock once for each. checkQueued
	// is set while a drain's commit check waits on the kernel's Late
	// list, so a cycle queues at most one.
	waiting     []int
	checkQueued bool

	// Handlers bound once in newTCache: a shadow write became durable
	// (Arg: core); a core's TC drained (Arg: core); the post-drain commit
	// check; the commit record became durable (Arg: core).
	fbDurableFn, tcDrainedFn, drainCheckFn, fbApplyFn func(uint64)
}

// fallback is one core's copy-on-write fall-back state.
type fallback struct {
	active      bool
	tx          uint64
	writes      []trace.Write // this transaction's shadow writes
	outstanding int           // shadow writes not yet durable
	committing  bool          // TX_END seen; the commit waits for the drain
	resume      sim.Event     // the stalled core's continuation
	shadow      memaddr.Range // the core's shadow log
	cursor      uint64        // next free shadow slot
}

func newTCache(env *Env) Mechanism {
	m := &tcMech{env: env, fb: make([]fallback, env.Cores), waiting: make([]int, 0, env.Cores)}
	m.fbDurableFn = m.fallbackDurable
	m.tcDrainedFn = m.tcDrained
	m.drainCheckFn = m.drainCheck
	m.fbApplyFn = m.fallbackApply
	for c := range m.fb {
		m.fb[c].shadow = memaddr.PerCoreLog(c)
		m.fb[c].cursor = m.fb[c].shadow.Base
	}
	durableApply := func(addr, value uint64) { env.Durable.WriteWord(addr, value) }
	for c := 0; c < env.Cores; c++ {
		tc := txcache.New(env.K, env.TC, env.Mem, durableApply, env.Obs, c)
		// Shared-line ownership releases when the owning transaction's
		// last committed write to the line drains out of the TC.
		tc.SetArbiter(env.Arb)
		tc.OnDrain(sim.Event{Fn: m.tcDrainedFn, Arg: uint64(c)})
		m.tcs = append(m.tcs, tc)
	}
	return m
}

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

func (m *tcMech) Attach(*cache.Hierarchy) {}

func (m *tcMech) Rewrite(core int, r trace.Reader) trace.Reader { return r }

// Store copies the persistent store into the TC beside the normal cache
// path. A full TC stalls the core, parked until the TC's next drain
// acknowledgment fires wake; at the high-water mark the store takes the
// copy-on-write fall-back.
func (m *tcMech) Store(core int, txID uint64, addr, value uint64, wake sim.Event) cpu.StoreAction {
	// Shared lines pass the line arbiter before entering either
	// durability path. On a lost arbitration the transaction's TC
	// entries are discarded (they are Active, never drained) and any
	// fall-back state is dropped; in-flight shadow log writes are
	// harmless — nothing applies them without a commit record. The
	// one-cycle arbitration retry never parks: the request is decided
	// already, and the next cycle's store proceeds or aborts.
	arb, fb := m.env.Arb, &m.fb[core]
	switch arb.Check(core, txID, addr) {
	case txcache.ArbRetry:
		return cpu.StoreAction{Retry: true}
	case txcache.ArbAbort:
		m.tcs[core].EvictTx(txID)
		if fb.active && fb.tx == txID {
			fb.active = false
			fb.writes = fb.writes[:0]
		}
		return cpu.StoreAction{Abort: true}
	}
	if fb.active && fb.tx == txID {
		m.fallbackWrite(core, addr, value)
		arb.NoteWrite(core, addr)
		return cpu.StoreAction{}
	}
	switch m.tcs[core].Write(txID, addr, value) {
	case txcache.Accepted:
		arb.NoteWrite(core, addr)
		return cpu.StoreAction{}
	case txcache.Fallback:
		fb.active = true
		fb.tx = txID
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
		arb.NoteWrite(core, addr)
		return cpu.StoreAction{}
	default: // Full
		// Only this TC's next ack can change the answer: the line stays
		// held, so the arbiter keeps answering proceed, and no
		// fall-back starts meanwhile.
		m.tcs[core].Park(wake)
		return cpu.StoreAction{Retry: true, Park: true}
	}
}

// shadowSlot allocates core's next shadow log slot, for a shadow write
// or a commit record, and returns its line address.
func (m *tcMech) shadowSlot(core int) uint64 {
	fb := &m.fb[core]
	slot := fb.cursor
	fb.cursor += 2 * memaddr.WordSize
	if fb.cursor > fb.shadow.End() {
		panic(fmt.Sprintf("mechanism: tcache shadow log for core %d exhausted", core))
	}
	return memaddr.LineAddr(slot)
}

// fallbackWrite sends one shadow (copy-on-write) update to NVM.
func (m *tcMech) fallbackWrite(core int, addr, value uint64) {
	fb := &m.fb[core]
	fb.writes = append(fb.writes, trace.Write{Addr: memaddr.WordAddr(addr), Value: value})
	fb.outstanding++
	m.env.Mem.Write(m.shadowSlot(core), sim.Event{}, sim.Event{Fn: m.fbDurableFn, Arg: uint64(core)})
}

// fallbackDurable retires one durable shadow write (Arg: core). The
// write that was the commit's last wait commits it here.
func (m *tcMech) fallbackDurable(core uint64) {
	m.fb[core].outstanding--
	if m.checkFallbackCommit(int(core)) {
		m.stopWaiting(int(core))
	}
}

// TxEnd commits: ordinarily a single commit request to the nonvolatile TC
// (no stall); for an overflowed transaction the commit waits for shadow
// durability plus a commit record. A commit that cannot go at once joins
// the waiting list, and TCache holds the clock on the core's behalf for
// the cycles a core re-checking the condition each cycle would step,
// so SkippedCycles does not move.
func (m *tcMech) TxEnd(core int, txID uint64, resume sim.Event) bool {
	if fb := &m.fb[core]; fb.active && fb.tx == txID {
		fb.committing, fb.resume = true, resume
		if !m.checkFallbackCommit(core) {
			m.waiting = append(m.waiting, core)
			m.env.K.Hold(true)
		}
		return true
	}
	m.tcs[core].Commit(txID)
	// The commit request to the nonvolatile TC is instantly durable, so
	// TX_END is the durable instant. The transaction's shared-line
	// writes turn to draining, and each line releases at its last ack.
	m.env.Oracle.Commit(core)
	m.env.Arb.CommitPending(core)
	return false
}

// checkFallbackCommit writes the deferred commit record once the shadow
// writes are durable and the core's TC has drained (ordering across
// transactions: an older TC entry must not land after the shadow apply,
// nor overwrite it in a stale in-flight drain), and reports whether it
// did.
func (m *tcMech) checkFallbackCommit(core int) bool {
	fb := &m.fb[core]
	if fb.outstanding != 0 || !m.tcs[core].Drained() || !fb.committing {
		return false
	}
	fb.committing, fb.active = false, false
	m.env.Mem.Write(m.shadowSlot(core), sim.Event{Fn: m.fbApplyFn, Arg: uint64(core)}, fb.resume)
	return true
}

// stopWaiting takes a committed core off the waiting list and drops the
// hold TxEnd took for it.
func (m *tcMech) stopWaiting(core int) {
	for i, c := range m.waiting {
		if c == core {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			m.env.K.Hold(false)
			return
		}
	}
}

// tcDrained runs when an ack empties core's TC (Arg: core). If the core's
// commit waits, it queues one commit check on the kernel's Late list for
// all of the cycle's drains: the check then reads the state every ack of
// the cycle left, where the per-cycle re-check it replaces read it
// (DESIGN.md §10, "Held wait: TCache's fall-back commit").
func (m *tcMech) tcDrained(core uint64) {
	if m.fb[core].committing && !m.checkQueued {
		m.checkQueued = true
		m.env.K.Late(sim.Event{Fn: m.drainCheckFn})
	}
}

// drainCheck commits every waiting core whose commit can now go, in
// TX_END order, and drops the hold taken for each.
func (m *tcMech) drainCheck(uint64) {
	m.checkQueued = false
	kept := m.waiting[:0]
	for _, c := range m.waiting {
		if m.checkFallbackCommit(c) {
			m.env.K.Hold(false)
		} else {
			kept = append(kept, c)
		}
	}
	m.waiting = kept
}

// fallbackApply runs when core's commit record is durable (Arg: core):
// it applies the shadow writes, then commits the TC-resident entries, as
// one atomic event. The core stays stalled until the record's resume, so
// the record still holds the transaction and its shadow writes.
func (m *tcMech) fallbackApply(core uint64) {
	c, fb := int(core), &m.fb[core]
	for _, w := range fb.writes {
		m.env.Durable.WriteWord(w.Addr, w.Value)
	}
	fb.writes = fb.writes[:0]
	m.tcs[c].Commit(fb.tx)
	// Commit-record durability is the overflowed transaction's durable
	// instant: its shadow writes just applied, so shared-line ownership
	// releases here.
	m.env.Oracle.Commit(c)
	m.env.Arb.ReleaseTxNow(c)
}

func (m *tcMech) Drained() bool {
	for c := 0; c < m.env.Cores; c++ {
		if !m.tcs[c].Drained() || m.fb[c].outstanding != 0 || m.fb[c].committing {
			return false
		}
	}
	return true
}

// Recover replays the nonvolatile TCs: committed entries (in FIFO order)
// are applied to the durable image; active entries belong to uncommitted
// transactions and are discarded. Overflowed transactions were applied at
// commit-record durability and need nothing here. Every entry counts as
// scanned, every committed one as an NVM write.
func (m *tcMech) Recover(durable *memimage.Image) (*memimage.Image, RecoveryCost) {
	out := durable.Snapshot()
	scanned, writes := 0, 0
	for _, tc := range m.tcs {
		for _, e := range tc.Contents() {
			scanned++
			if e.State == txcache.Committed {
				out.WriteWord(e.Addr, e.Value)
				writes++
			}
		}
	}
	return out, recoveryCost(scanned, writes)
}
