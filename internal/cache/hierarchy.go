package cache

import (
	"errors"
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
)

// The Table 2 hit latencies in CPU cycles at 2 GHz: L1 0.5 ns, L2 4.5 ns
// and LLC 10 ns.
const (
	L1Latency  = 1
	L2Latency  = 9
	LLCLatency = 20
)

// Config sizes the three-level hierarchy: sizes in bytes, per core for
// L1 and L2 and total for the shared LLC.
type Config struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	// LLCWriteOccupancy is how many cycles a write (writeback install)
	// occupies the LLC port. 0 or 1 for SRAM; Kiln's STT-RAM LLC uses a
	// multiple, so commit-flush bursts congest demand misses.
	LLCWriteOccupancy uint64
}

// Validate rejects a geometry NewSetAssoc would panic on: every level
// needs a nonzero, power-of-two set count.
func (c Config) Validate() error {
	_, l1 := geometry("L1", c.L1Size, c.L1Ways)
	_, l2 := geometry("L2", c.L2Size, c.L2Ways)
	_, llc := geometry("LLC", c.LLCSize, c.LLCWays)
	return errors.Join(l1, l2, llc)
}

// Memory is the main-memory interface the LLC misses to (implemented by
// memctrl.Backend, which routes each line to its owning channel).
type Memory interface {
	// Read fetches a line; done fires when data returns.
	Read(lineAddr uint64, done sim.Event)
	// Write retires a line towards memory. apply fires at durability
	// time (durable-image update), then onDurable (either may be the
	// zero Event).
	Write(lineAddr uint64, apply, onDurable sim.Event)
}

// Hooks are the narrow points where persistence mechanisms observe or
// redirect hierarchy behaviour without changing its operation.
// Zero-valued hooks give the unmodified baseline hierarchy.
type Hooks struct {
	// DropLLCEviction, if non-nil, is consulted for every dirty LLC
	// victim; returning true discards the write-back (the transaction
	// cache design drops persistent evictions, §3).
	DropLLCEviction func(victim Line) bool
	// SidePathProbe, if non-nil, is called for every LLC miss on a
	// persistent line (the LLC "issues miss requests toward not only
	// the NVM but also the transaction cache"). The return value
	// reports whether the side path held newer data (stats; the fill
	// still completes at NVM latency since the side path holds words,
	// not whole lines).
	SidePathProbe func(lineAddr uint64) bool
	// AllowLLCVictim, if non-nil, vetoes eviction candidates (Kiln pins
	// uncommitted transaction lines in the nonvolatile LLC). When every
	// way is vetoed the install is bypassed (counted in Stats).
	AllowLLCVictim func(l *Line) bool
	// BeforeLLCDirtyUpdate runs before a dirty install/update changes
	// an LLC line's flags, letting Kiln write back the old committed
	// version before an uncommitted overwrite.
	BeforeLLCDirtyUpdate func(old Line, newTxID uint64, newUncommitted bool)
	// OnLLCDirtyInstall runs after a line becomes dirty in the LLC
	// (Kiln snapshots the line's value into its nonvolatile-LLC image).
	OnLLCDirtyInstall func(lineAddr uint64)
	// WritebackApply builds the durable-image update for a dirty line
	// written back to main memory, fired when the write is durable;
	// nil (or a zero Event) means no functional effect (volatile DRAM
	// lines).
	WritebackApply func(lineAddr uint64) sim.Event
}

// Stats aggregates hierarchy-level counters that the per-level tag arrays
// do not track themselves.
type Stats struct {
	DroppedEvictions uint64 // dirty LLC victims discarded by the drop hook
	LLCBypasses      uint64 // installs skipped because every way was pinned
	MemWritebacks    uint64 // dirty lines actually written to main memory
	SidePathProbes   uint64
	SidePathHits     uint64
	LLCQueueWaitSum  uint64
	LLCQueueServed   uint64
	FlushedLines     uint64 // lines moved by FlushTx (Kiln commits)
	CleanedLines     uint64 // lines cleaned by CLWB flushes
	CommitLockStalls uint64 // cycles demand traffic waited on commits
}

type llcReqKind uint8

const (
	llcRead llcReqKind = iota
	llcWriteback
)

type llcReq struct {
	kind     llcReqKind
	lineAddr uint64
	// read fields
	persistent bool
	// writeback fields
	line    Line
	enqueue uint64
}

type waiter struct {
	core       int
	store      bool
	persistent bool
	txID       uint64
	uncommit   bool
	done       sim.Event
}

// Event Arg encoding for fills: a line address is 64-byte aligned, so
// its low bits carry flags.
const argPersistent = 1

// pendingFlush is a clwb/clflush write waiting out the L1 latency before
// it enters memory: the durable-image update is built at flush time, so
// it rides along with the core's completion.
type pendingFlush struct {
	lineAddr    uint64
	apply, done sim.Event
}

// commitFlush is one core's FlushTx in progress (tag 0: none).
type commitFlush struct {
	tag, start, lines uint64 // the transaction, its start cycle, lines moved
	done              sim.Event
	waiting           bool // waits on the tag's in-transit writebacks
}

// Hierarchy is the three-level cache model shared by all four mechanisms.
type Hierarchy struct {
	k     *sim.Kernel
	slot  int // kernel slot, for Sleep
	mem   Memory
	hooks Hooks
	// writeOccupancy is Config.LLCWriteOccupancy.
	writeOccupancy uint64

	l1, l2 []*SetAssoc
	llc    *SetAssoc

	queue []llcReq
	// mshrs holds the merged waiters of every line with a fill
	// outstanding; wfree recycles their waiter slices: a completed fill
	// returns its slice here and the next new miss reuses it.
	mshrs    mshrTable
	wfree    [][]waiter
	portBusy uint64 // cycle until which the LLC port is occupied

	// Per-request state that does not fit an Event's Arg word: dirty
	// lines between LLC service and install, and flush writes waiting
	// out the L1 latency.
	wbs     sim.Slots[Line]
	flushes sim.Slots[pendingFlush]

	// Handlers bound once at construction (see sim.Event).
	enqueueReadFn, hitFillFn, missReadFn, memFillFn func(uint64)
	wbInstallFn, flushWriteFn, commitDoneFn         func(uint64)

	// commitLocks counts in-progress FlushTx commits. While nonzero,
	// demand reads stall at the LLC and only writebacks (the flush's
	// own traffic) are served — Kiln commits "block subsequent cache
	// and memory requests" (§5.2).
	commitLocks int

	// txWB counts queued/in-flight LLC writebacks per transaction;
	// commits holds each core's commit flush, which may wait for that
	// count to drain (Kiln: a commit may not complete while any of the
	// transaction's evicted lines is still in transit to the LLC).
	txWB    map[uint64]int
	commits []commitFlush

	// obs observes the hierarchy (nil when disabled).
	obs *obs.Sink

	stats Stats
}

// New builds the hierarchy for nCores cores and registers its LLC
// arbiter with the kernel. o observes it (nil disables observation).
func New(k *sim.Kernel, cfg Config, mem Memory, hooks Hooks, nCores int, o *obs.Sink) *Hierarchy {
	h := &Hierarchy{
		k: k, mem: mem, hooks: hooks, obs: o, writeOccupancy: cfg.LLCWriteOccupancy,
		llc:     NewSetAssoc("LLC", cfg.LLCSize, cfg.LLCWays),
		mshrs:   newMSHRTable(mshrSlotsPerCore * nCores),
		txWB:    make(map[uint64]int),
		commits: make([]commitFlush, nCores),
	}
	h.enqueueReadFn = h.enqueueRead
	h.hitFillFn = h.hitFill
	h.missReadFn = h.missRead
	h.memFillFn = h.memFill
	h.wbInstallFn = h.wbInstall
	h.flushWriteFn = h.flushWrite
	h.commitDoneFn = h.commitDone
	for c := 0; c < nCores; c++ {
		h.l1 = append(h.l1, NewSetAssoc(fmt.Sprintf("L1-%d", c), cfg.L1Size, cfg.L1Ways))
		h.l2 = append(h.l2, NewSetAssoc(fmt.Sprintf("L2-%d", c), cfg.L2Size, cfg.L2Ways))
	}
	h.slot = k.Register(h)
	h.sleep()
	return h
}

// L1, L2 and LLC expose the tag arrays (stats, tests, Kiln walks).
func (h *Hierarchy) L1(core int) *SetAssoc { return h.l1[core] }

// L2 returns core's private second-level cache.
func (h *Hierarchy) L2(core int) *SetAssoc { return h.l2[core] }

// LLC returns the shared last-level cache.
func (h *Hierarchy) LLC() *SetAssoc { return h.llc }

// Stats returns a copy of the hierarchy counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Pending reports outstanding LLC-queue entries plus in-flight memory
// fills, for quiescence checks.
func (h *Hierarchy) Pending() int { return len(h.queue) + h.mshrs.n }

// QueueDepths reports the LLC request queue split by kind: demand reads
// (misses beyond the private levels) and writeback installs. Sampled by
// the observability layer.
func (h *Hierarchy) QueueDepths() (reads, writebacks int) {
	for i := range h.queue {
		if h.queue[i].kind == llcRead {
			reads++
		} else {
			writebacks++
		}
	}
	return reads, writebacks
}

// InflightFills reports lines with an outstanding fill (the MSHR
// population). Sampled by the observability layer.
func (h *Hierarchy) InflightFills() int { return h.mshrs.n }

// Access performs one 64-bit load or store for core. done fires when the
// access completes (data returned for loads; line owned and written in L1
// for stores). txID/uncommitted tag store-touched lines for Kiln; other
// mechanisms pass 0/false.
func (h *Hierarchy) Access(core int, addr uint64, store, persistent bool, txID uint64, uncommitted bool, done sim.Event) {
	lineAddr := memaddr.LineAddr(addr)
	// L1.
	if l := h.l1[core].Lookup(lineAddr, true); l != nil {
		if store {
			h.markStore(l, persistent, txID, uncommitted)
		}
		h.k.Schedule(L1Latency, done)
		return
	}
	// L2 (tag check costs L1 latency first).
	if l := h.l2[core].Lookup(lineAddr, true); l != nil {
		moved := *l
		if store {
			h.markStore(l, persistent, txID, uncommitted)
			moved = *l
		}
		// Promote into L1 (non-inclusive: move, keeping L2 copy is
		// also fine; we keep L2's copy clean and let L1 own dirt).
		l.Dirty = false
		h.installL1(core, moved)
		h.k.Schedule(L1Latency+L2Latency, done)
		return
	}
	// Miss beyond the private levels: merge into an in-flight fill if
	// one exists, else enqueue an LLC request.
	w := waiter{core: core, store: store, persistent: persistent, txID: txID, uncommit: uncommitted, done: done}
	if ws := h.mshrs.find(lineAddr); ws != nil {
		*ws = append(*ws, w)
		return
	}
	var ws []waiter
	if n := len(h.wfree); n > 0 {
		ws = h.wfree[n-1]
		h.wfree = h.wfree[:n-1]
	}
	h.mshrs.insert(lineAddr, append(ws, w))
	h.k.Schedule(L1Latency+L2Latency, sim.Event{Fn: h.enqueueReadFn, Arg: fillArg(lineAddr, persistent)})
}

// fillArg packs a line address and a persistent flag into an Event Arg.
func fillArg(lineAddr uint64, persistent bool) uint64 {
	if persistent {
		return lineAddr | argPersistent
	}
	return lineAddr
}

// enqueueRead queues a demand miss at the LLC once the private levels'
// tag checks have elapsed.
func (h *Hierarchy) enqueueRead(arg uint64) {
	h.queue = append(h.queue, llcReq{
		kind: llcRead, lineAddr: arg &^ argPersistent, persistent: arg&argPersistent != 0, enqueue: h.k.Now(),
	})
	h.sleep()
}

func (h *Hierarchy) markStore(l *Line, persistent bool, txID uint64, uncommitted bool) {
	l.Dirty = true
	if persistent {
		l.Persistent = true
	}
	if txID != 0 {
		l.TxID = txID
		l.Uncommitted = uncommitted
	}
}

// installL1 places a line into core's L1, cascading the victim.
func (h *Hierarchy) installL1(core int, line Line) {
	evicted, installed, _ := h.l1[core].Insert(line.Addr, nil)
	*installed = line
	installed.Valid = true
	if evicted.Valid && evicted.Dirty {
		h.installL2(core, evicted)
	}
}

// installL2 merges an evicted (or filled) line into core's L2, cascading
// dirty victims to the LLC queue.
func (h *Hierarchy) installL2(core int, line Line) {
	if l := h.l2[core].Lookup(line.Addr, false); l != nil {
		h.mergeFlags(l, line)
		return
	}
	evicted, installed, _ := h.l2[core].Insert(line.Addr, nil)
	*installed = line
	installed.Valid = true
	if evicted.Valid && evicted.Dirty {
		h.queueWriteback(evicted)
	}
}

func (h *Hierarchy) mergeFlags(dst *Line, src Line) {
	if src.Dirty {
		dst.Dirty = true
	}
	if src.Persistent {
		dst.Persistent = true
	}
	if src.TxID != 0 {
		dst.TxID = src.TxID
		dst.Uncommitted = src.Uncommitted
	}
}

// queueWriteback enqueues a dirty line for installation into the LLC.
func (h *Hierarchy) queueWriteback(line Line) {
	if line.TxID != 0 {
		h.txWB[line.TxID]++
	}
	h.queue = append(h.queue, llcReq{
		kind: llcWriteback, lineAddr: line.Addr, line: line, enqueue: h.k.Now(),
	})
	h.sleep()
}

// wbLanded retires one in-transit writeback for a transaction, waking a
// waiting commit when the count drains.
func (h *Hierarchy) wbLanded(txID uint64) {
	if txID == 0 {
		return
	}
	h.txWB[txID]--
	if h.txWB[txID] <= 0 {
		delete(h.txWB, txID)
		for c := range h.commits {
			if f := &h.commits[c]; f.waiting && f.tag == txID {
				h.commitDone(uint64(c))
			}
		}
	}
}

// sleep re-evaluates whether the LLC arbiter sleeps: with an empty
// request queue Tick is a pure no-op regardless of portBusy or
// commitLocks (CommitLockStalls only accrues against queued demand
// reads). Only the two queue appends end that, and both call sleep;
// in-flight fills complete through kernel events and need no tick.
func (h *Hierarchy) sleep() { h.k.Sleep(h.slot, len(h.queue) == 0) }

// Tick implements sim.Tickable: serve one queued LLC request, honouring
// write-port occupancy (slow STT-RAM writes keep the port busy for
// several cycles).
func (h *Hierarchy) Tick(now uint64) {
	if now < h.portBusy || len(h.queue) == 0 {
		return
	}
	idx := 0
	if h.commitLocks > 0 {
		// Commit in progress: only writebacks proceed.
		idx = -1
		for i := range h.queue {
			if h.queue[i].kind == llcWriteback {
				idx = i
				break
			}
		}
		if idx < 0 {
			h.stats.CommitLockStalls++
			return
		}
	}
	req := h.queue[idx]
	h.queue = append(h.queue[:idx], h.queue[idx+1:]...)
	h.sleep()
	h.stats.LLCQueueServed++
	h.stats.LLCQueueWaitSum += now - req.enqueue
	switch req.kind {
	case llcRead:
		h.serveLLCRead(req)
	case llcWriteback:
		h.serveLLCWriteback(req)
		if h.writeOccupancy > 1 {
			h.portBusy = now + h.writeOccupancy
		}
	}
}

func (h *Hierarchy) serveLLCRead(req llcReq) {
	if l := h.llc.Lookup(req.lineAddr, true); l != nil {
		// The hit's Persistent bit is captured now, not when the fill
		// lands.
		h.k.Schedule(LLCLatency, sim.Event{Fn: h.hitFillFn, Arg: fillArg(req.lineAddr, l.Persistent)})
		return
	}
	if req.persistent && h.hooks.SidePathProbe != nil {
		h.stats.SidePathProbes++
		hit := uint64(0)
		if h.hooks.SidePathProbe(req.lineAddr) {
			h.stats.SidePathHits++
			hit = 1
		}
		h.obs.SideProbe(req.lineAddr, hit, h.k.Now())
	}
	h.k.Schedule(LLCLatency, sim.Event{Fn: h.missReadFn, Arg: req.lineAddr})
}

// hitFill completes an LLC hit (Arg: fillArg of the line and the hit
// line's Persistent bit).
func (h *Hierarchy) hitFill(arg uint64) {
	h.completeFill(arg&^argPersistent, Line{Persistent: arg&argPersistent != 0}, false)
}

// missRead sends an LLC miss to memory once the LLC latency elapsed.
func (h *Hierarchy) missRead(lineAddr uint64) {
	h.mem.Read(lineAddr, sim.Event{Fn: h.memFillFn, Arg: lineAddr})
}

// memFill completes a fill from memory, reporting it to the observer
// (which times the fills whose side-path probe hit).
func (h *Hierarchy) memFill(lineAddr uint64) {
	h.obs.MemFill(lineAddr, h.k.Now())
	h.completeFill(lineAddr, Line{Addr: lineAddr, Valid: true}, true)
}

// completeFill distributes a returned line to every merged waiter and,
// for memory fills, installs it in the LLC.
func (h *Hierarchy) completeFill(lineAddr uint64, line Line, fromMemory bool) {
	if fromMemory {
		h.insertLLC(line)
	}
	waiters := h.mshrs.take(lineAddr)
	for _, w := range waiters {
		filled := Line{Addr: lineAddr, Valid: true, Persistent: line.Persistent}
		if w.store {
			filled.Dirty = true
			if w.persistent {
				filled.Persistent = true
			}
			if w.txID != 0 {
				filled.TxID = w.txID
				filled.Uncommitted = w.uncommit
			}
		}
		// A second waiter for the same line on the same core would
		// re-insert an existing line; merge through L1 lookup first.
		if l := h.l1[w.core].Lookup(lineAddr, false); l != nil {
			h.mergeFlags(l, filled)
		} else {
			h.installL1(w.core, filled)
		}
		w.done.Fire()
	}
	clear(waiters)
	h.wfree = append(h.wfree, waiters[:0])
}

// serveLLCWriteback installs a dirty line arriving from a private L2 (or
// a Kiln commit flush) into the LLC.
func (h *Hierarchy) serveLLCWriteback(req llcReq) {
	h.k.Schedule(LLCLatency, sim.Event{Fn: h.wbInstallFn, Arg: h.wbs.Put(req.line)})
}

// wbInstall installs a served writeback once the LLC latency elapsed
// (Arg: h.wbs slot).
func (h *Hierarchy) wbInstall(slot uint64) {
	line := h.wbs.Take(slot)
	// Probe, not demand lookup: writeback installs must not skew
	// the demand miss-rate statistics.
	l := h.llc.Lookup(line.Addr, false)
	if l != nil && h.hooks.BeforeLLCDirtyUpdate != nil {
		h.hooks.BeforeLLCDirtyUpdate(*l, line.TxID, line.Uncommitted)
		// The hook may have reshaped the set (placeholder installs):
		// re-resolve the line pointer.
		l = h.llc.Lookup(line.Addr, false)
	}
	if l != nil {
		h.mergeFlags(l, line)
		l.Uncommitted = line.Uncommitted
		l.TxID = line.TxID
	} else {
		l = h.insertLLC(line)
	}
	switch {
	case l == nil:
		// Bypass under total pinning pressure: retire straight
		// to memory (counted; recovery strictness is checked by
		// the crash tests).
		h.writebackToMemory(line)
	case h.hooks.OnLLCDirtyInstall != nil:
		h.hooks.OnLLCDirtyInstall(line.Addr)
	}
	h.wbLanded(line.TxID)
}

// insertLLC installs a line, handling victim policy and eviction routing.
// It returns the installed line, or nil when the install was bypassed.
// A line already present (a writeback install racing a demand fill within
// the LLC latency window) is merged in place.
func (h *Hierarchy) insertLLC(line Line) *Line {
	if l := h.llc.Lookup(line.Addr, false); l != nil {
		h.mergeFlags(l, line)
		return l
	}
	evicted, installed, ok := h.llc.Insert(line.Addr, h.hooks.AllowLLCVictim)
	if !ok {
		h.stats.LLCBypasses++
		return nil
	}
	*installed = line
	installed.Valid = true
	h.routeLLCVictim(evicted)
	return installed
}

// routeLLCVictim disposes of a line evicted from the LLC: a dirty victim
// is dropped when the mechanism claims it (DropLLCEviction), else written
// back to memory.
func (h *Hierarchy) routeLLCVictim(evicted Line) {
	if !evicted.Valid || !evicted.Dirty {
		return
	}
	if h.hooks.DropLLCEviction != nil && h.hooks.DropLLCEviction(evicted) {
		h.stats.DroppedEvictions++
		h.obs.LLCDrop(evicted.Addr, h.k.Now())
	} else {
		h.writebackToMemory(evicted)
	}
}

// InstallPlaceholder installs a clean line at a synthetic address —
// capacity pressure from mechanisms that keep multiple versions of a line
// in the LLC (Kiln retains the old committed version beside the new
// uncommitted one). Victims are handled through the normal eviction path,
// except that the protected address (the live sibling version) is never
// chosen; the placeholder itself ages out by LRU.
func (h *Hierarchy) InstallPlaceholder(lineAddr, protect uint64) {
	if h.llc.Lookup(lineAddr, false) != nil {
		return
	}
	allow := func(l *Line) bool {
		if l.Addr == protect {
			return false
		}
		return h.hooks.AllowLLCVictim == nil || h.hooks.AllowLLCVictim(l)
	}
	evicted, installed, ok := h.llc.Insert(lineAddr, allow)
	if !ok {
		h.stats.LLCBypasses++
		return
	}
	installed.Valid = true
	h.routeLLCVictim(evicted)
}

func (h *Hierarchy) writebackToMemory(line Line) {
	h.stats.MemWritebacks++
	var apply sim.Event
	if h.hooks.WritebackApply != nil {
		apply = h.hooks.WritebackApply(line.Addr)
	}
	h.mem.Write(line.Addr, apply, sim.Event{})
}

// Flush implements clwb for core: cached copies of the line containing
// addr are cleaned and the line's current (live-image) contents are
// written towards memory; done fires when the write is durable. The write
// is unconditional — clwb is posted through the memory pipeline, and its
// functional effect comes from the durable-image apply, so it is safe
// even if the covered store's fill is still in flight.
func (h *Hierarchy) Flush(core int, addr uint64, done sim.Event) {
	h.flushLine(core, addr, false, done)
}

// FlushInv implements clflush: like Flush, but the line is also
// invalidated everywhere, so the next access misses.
func (h *Hierarchy) FlushInv(core int, addr uint64, done sim.Event) {
	h.flushLine(core, addr, true, done)
}

func (h *Hierarchy) flushLine(core int, addr uint64, invalidate bool, done sim.Event) {
	lineAddr := memaddr.LineAddr(addr)
	for _, c := range []*SetAssoc{h.l1[core], h.l2[core], h.llc} {
		if l := c.Lookup(lineAddr, false); l != nil {
			if l.Dirty {
				l.Dirty = false
				h.stats.CleanedLines++
			}
			if invalidate {
				c.Invalidate(lineAddr)
			}
		}
	}
	h.stats.MemWritebacks++
	var apply sim.Event
	if h.hooks.WritebackApply != nil {
		apply = h.hooks.WritebackApply(lineAddr)
	}
	slot := h.flushes.Put(pendingFlush{lineAddr: lineAddr, apply: apply, done: done})
	h.k.Schedule(L1Latency, sim.Event{Fn: h.flushWriteFn, Arg: slot})
}

// flushWrite sends a flush's write to memory once the L1 latency
// elapsed (Arg: h.flushes slot).
func (h *Hierarchy) flushWrite(slot uint64) {
	f := h.flushes.Take(slot)
	h.mem.Write(f.lineAddr, f.apply, f.done)
}

// FlushTx moves every dirty line of txID out of core's private caches
// into the LLC (Kiln's commit flush) and, once all are installed, clears
// the Uncommitted pin on the transaction's LLC lines. done fires at that
// point.
func (h *Hierarchy) FlushTx(core int, txID uint64, done sim.Event) {
	f := &h.commits[core]
	if f.tag != 0 {
		panic("cache: concurrent FlushTx on one core")
	}
	*f = commitFlush{tag: txID, start: h.k.Now(), done: done}
	// Flushed lines remain tagged uncommitted while in transit; the
	// commit becomes visible atomically in commitDone's unpin walk, so a
	// crash mid-flush never exposes a partially committed transaction.
	for _, c := range []*SetAssoc{h.l1[core], h.l2[core]} {
		c.ForEach(func(l *Line) {
			if l.Dirty && l.TxID == txID {
				h.queueWriteback(Line{
					Addr: l.Addr, Valid: true, Dirty: true,
					Persistent: l.Persistent, TxID: txID, Uncommitted: true,
				})
				l.Dirty = false
				l.TxID = 0
				l.Uncommitted = false
				f.lines++
			}
		})
	}
	h.stats.FlushedLines += f.lines
	h.commitLocks++
	// The commit completes when every writeback of this transaction has
	// landed in the LLC — both the flush's own lines and any mid-
	// transaction evictions still in transit.
	if h.txWB[txID] == 0 {
		h.k.Schedule(1, sim.Event{Fn: h.commitDoneFn, Arg: uint64(core)})
		return
	}
	f.waiting = true
}

// commitDone completes core's commit flush (Arg: core): it unpins the
// transaction's LLC lines and fires the flush's done.
func (h *Hierarchy) commitDone(core uint64) {
	f := &h.commits[core]
	h.obs.TxFlush(int(core), f.tag, f.start, h.k.Now(), f.lines)
	h.commitLocks--
	h.llc.ForEach(func(l *Line) {
		if l.TxID == f.tag {
			l.Uncommitted = false
			l.TxID = 0
		}
	})
	f.tag, f.waiting = 0, false
	f.done.Fire()
}
