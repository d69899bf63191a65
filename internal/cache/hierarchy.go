package cache

import (
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/sim"
)

// Config sizes and times the three-level hierarchy. Latencies are in CPU
// cycles; sizes in bytes (per core for L1/L2, total for the shared LLC).
type Config struct {
	L1Size, L1Ways   int
	L1Latency        uint64
	L2Size, L2Ways   int
	L2Latency        uint64
	LLCSize, LLCWays int
	LLCLatency       uint64
	// LLCPortsPerCycle is how many queued LLC requests (demand misses
	// from L2 and writebacks into the LLC) are accepted per cycle.
	LLCPortsPerCycle int
	// LLCWriteOccupancy is how many cycles a write (writeback install)
	// occupies the LLC port. 1 for SRAM; Kiln's STT-RAM LLC uses a
	// multiple, so commit-flush bursts congest demand misses.
	LLCWriteOccupancy uint64
}

// WithDefaults fills zero fields with the Table 2 configuration (2 GHz:
// L1 0.5 ns, L2 4.5 ns, LLC 10 ns).
func (c Config) WithDefaults() Config {
	if c.L1Size == 0 {
		c.L1Size = 32 << 10
	}
	if c.L1Ways == 0 {
		c.L1Ways = 4
	}
	if c.L1Latency == 0 {
		c.L1Latency = 1
	}
	if c.L2Size == 0 {
		c.L2Size = 256 << 10
	}
	if c.L2Ways == 0 {
		c.L2Ways = 8
	}
	if c.L2Latency == 0 {
		c.L2Latency = 9
	}
	if c.LLCSize == 0 {
		c.LLCSize = 64 << 20
	}
	if c.LLCWays == 0 {
		c.LLCWays = 16
	}
	if c.LLCLatency == 0 {
		c.LLCLatency = 20
	}
	if c.LLCPortsPerCycle == 0 {
		c.LLCPortsPerCycle = 1
	}
	if c.LLCWriteOccupancy == 0 {
		c.LLCWriteOccupancy = 1
	}
	return c
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

// DebugLine, when nonzero, prints every LLC-side event touching that
// line (temporary diagnostic aid). Debug-only: nothing in the repo
// writes it, so concurrent pmemaccel.Run calls (the internal/sweep
// worker pool) only ever read the constant zero. Set it from a
// single-threaded debugging session only — it is deliberately not part
// of Config, and writing it during a parallel sweep is a data race.
var DebugLine uint64

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

// sideHit is a metrics-enabled side-hit fill in flight: the line and
// the cycle the LLC served the miss.
type sideHit struct {
	lineAddr, start uint64
}

// pendingFlush is a clwb/clflush write waiting out the L1 latency before
// it enters memory: the durable-image update is built at flush time, so
// it rides along with the core's completion.
type pendingFlush struct {
	lineAddr    uint64
	apply, done sim.Event
}

// Hierarchy is the three-level cache model shared by all four mechanisms.
type Hierarchy struct {
	k     *sim.Kernel
	cfg   Config
	mem   Memory
	hooks Hooks

	l1, l2 []*SetAssoc
	llc    *SetAssoc

	queue    []llcReq
	inflight map[uint64][]waiter
	// wfree recycles MSHR waiter slices: a completed fill returns its
	// slice here and the next new miss reuses it.
	wfree    [][]waiter
	portBusy uint64 // cycle until which the LLC port is occupied

	// Per-request state that does not fit an Event's Arg word: dirty
	// lines between LLC service and install, metrics-timed side-hit
	// fills, and flush writes waiting out the L1 latency.
	wbs     sim.Slots[Line]
	timed   sim.Slots[sideHit]
	flushes sim.Slots[pendingFlush]

	// Handlers bound once at construction (see sim.Event).
	enqueueReadFn, hitFillFn, missReadFn, memFillFn     func(uint64)
	timedReadFn, timedFillFn, wbInstallFn, flushWriteFn func(uint64)

	// commitLocks counts in-progress FlushTx commits. While nonzero,
	// demand reads stall at the LLC and only writebacks (the flush's
	// own traffic) are served — Kiln commits "block subsequent cache
	// and memory requests" (§5.2).
	commitLocks int

	// txWB counts queued/in-flight LLC writebacks per transaction;
	// txWBWait holds the commit continuation waiting for that count to
	// drain (Kiln: a commit may not complete while any of the
	// transaction's evicted lines is still in transit to the LLC).
	txWB     map[uint64]int
	txWBWait map[uint64]sim.Event

	// probe is the observability recorder (nil when disabled).
	probe *obs.Probe

	// hSideHitLat streams the fill latency of LLC misses whose
	// side-path probe hit the transaction cache (nil when metrics are
	// disabled). The side path holds words, not lines, so the fill
	// still completes at memory latency — the histogram quantifies
	// exactly that: what a "TC hit" costs the loading core.
	hSideHitLat *metrics.Histogram

	stats Stats
}

// New builds the hierarchy for nCores cores and registers its LLC
// arbiter with the kernel.
func New(k *sim.Kernel, cfg Config, mem Memory, hooks Hooks, nCores int) *Hierarchy {
	cfg = cfg.WithDefaults()
	h := &Hierarchy{
		k: k, cfg: cfg, mem: mem, hooks: hooks,
		llc:      NewSetAssoc("LLC", cfg.LLCSize, cfg.LLCWays),
		inflight: make(map[uint64][]waiter),
		txWB:     make(map[uint64]int),
		txWBWait: make(map[uint64]sim.Event),
	}
	h.enqueueReadFn = h.enqueueRead
	h.hitFillFn = h.hitFill
	h.missReadFn = h.missRead
	h.memFillFn = h.memFill
	h.timedReadFn = h.timedRead
	h.timedFillFn = h.timedFill
	h.wbInstallFn = h.wbInstall
	h.flushWriteFn = h.flushWrite
	for c := 0; c < nCores; c++ {
		h.l1 = append(h.l1, NewSetAssoc(fmt.Sprintf("L1-%d", c), cfg.L1Size, cfg.L1Ways))
		h.l2 = append(h.l2, NewSetAssoc(fmt.Sprintf("L2-%d", c), cfg.L2Size, cfg.L2Ways))
	}
	k.Register(h)
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

// Config returns the (defaulted) configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetProbe attaches the observability recorder (nil disables probing).
func (h *Hierarchy) SetProbe(p *obs.Probe) { h.probe = p }

// SetMetrics attaches the side-probe hit-latency histogram (nil
// disables the observation).
func (h *Hierarchy) SetMetrics(sideHitLat *metrics.Histogram) { h.hSideHitLat = sideHitLat }

// Pending reports outstanding LLC-queue entries plus in-flight memory
// fills, for quiescence checks.
func (h *Hierarchy) Pending() int { return len(h.queue) + len(h.inflight) }

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
func (h *Hierarchy) InflightFills() int { return len(h.inflight) }

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
		h.k.Schedule(h.cfg.L1Latency, done)
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
		h.k.Schedule(h.cfg.L1Latency+h.cfg.L2Latency, done)
		return
	}
	// Miss beyond the private levels: merge into an in-flight fill if
	// one exists, else enqueue an LLC request.
	w := waiter{core: core, store: store, persistent: persistent, txID: txID, uncommit: uncommitted, done: done}
	if ws, ok := h.inflight[lineAddr]; ok {
		h.inflight[lineAddr] = append(ws, w)
		return
	}
	var ws []waiter
	if n := len(h.wfree); n > 0 {
		ws = h.wfree[n-1]
		h.wfree = h.wfree[:n-1]
	}
	h.inflight[lineAddr] = append(ws, w)
	h.k.Schedule(h.cfg.L1Latency+h.cfg.L2Latency, sim.Event{Fn: h.enqueueReadFn, Arg: fillArg(lineAddr, persistent)})
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
	if DebugLine != 0 && line.Addr == DebugLine {
		fmt.Printf("[%d] queueWriteback line %#x tx=%d uncommit=%v dirty=%v\n",
			h.k.Now(), line.Addr, line.TxID, line.Uncommitted, line.Dirty)
	}
	if line.TxID != 0 {
		h.txWB[line.TxID]++
	}
	h.queue = append(h.queue, llcReq{
		kind: llcWriteback, lineAddr: line.Addr, line: line, enqueue: h.k.Now(),
	})
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
		if wake, ok := h.txWBWait[txID]; ok {
			delete(h.txWBWait, txID)
			wake.Fire()
		}
	}
}

// Idle implements sim.Quiescer: with an empty request queue Tick is a
// pure no-op regardless of portBusy or commitLocks (the serve loop never
// iterates, and CommitLockStalls only accrues against queued demand
// reads). Queue entries are only ever appended from ticks and fired
// events, so an empty queue stays empty across a fast-forward. In-flight
// fills complete through kernel events and do not require ticking.
func (h *Hierarchy) Idle() bool { return len(h.queue) == 0 }

// Tick implements sim.Tickable: serve up to LLCPortsPerCycle queued LLC
// requests, honouring write-port occupancy (slow STT-RAM writes keep the
// port busy for several cycles).
func (h *Hierarchy) Tick(now uint64) {
	if now < h.portBusy {
		return
	}
	for n := 0; n < h.cfg.LLCPortsPerCycle && len(h.queue) > 0; n++ {
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
		h.stats.LLCQueueServed++
		h.stats.LLCQueueWaitSum += now - req.enqueue
		switch req.kind {
		case llcRead:
			h.serveLLCRead(req)
		case llcWriteback:
			h.serveLLCWriteback(req)
			if h.cfg.LLCWriteOccupancy > 1 {
				h.portBusy = now + h.cfg.LLCWriteOccupancy
				return
			}
		}
	}
}

func (h *Hierarchy) serveLLCRead(req llcReq) {
	if l := h.llc.Lookup(req.lineAddr, true); l != nil {
		// The hit's Persistent bit is captured now, not when the fill
		// lands.
		h.k.Schedule(h.cfg.LLCLatency, sim.Event{Fn: h.hitFillFn, Arg: fillArg(req.lineAddr, l.Persistent)})
		return
	}
	if req.persistent && h.hooks.SidePathProbe != nil {
		h.stats.SidePathProbes++
		hit := uint64(0)
		if h.hooks.SidePathProbe(req.lineAddr) {
			h.stats.SidePathHits++
			hit = 1
		}
		if h.probe != nil { // guard: this site is per-LLC-miss hot
			h.probe.Instant(obs.KSideProbe, -1, req.lineAddr, h.k.Now(), hit)
		}
		if h.hSideHitLat != nil && hit == 1 {
			// Metrics-enabled side-hit fill: identical timing to the
			// plain path below, plus a latency observation when the
			// data returns.
			slot := h.timed.Put(sideHit{lineAddr: req.lineAddr, start: h.k.Now()})
			h.k.Schedule(h.cfg.LLCLatency, sim.Event{Fn: h.timedReadFn, Arg: slot})
			return
		}
	}
	h.k.Schedule(h.cfg.LLCLatency, sim.Event{Fn: h.missReadFn, Arg: req.lineAddr})
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

// memFill completes a fill from memory.
func (h *Hierarchy) memFill(lineAddr uint64) {
	h.completeFill(lineAddr, Line{Addr: lineAddr, Valid: true}, true)
}

// timedRead and timedFill are missRead and memFill for a side-hit fill
// whose latency the metrics registry observes (Arg: h.timed slot).
func (h *Hierarchy) timedRead(slot uint64) {
	h.mem.Read(h.timed.Get(slot).lineAddr, sim.Event{Fn: h.timedFillFn, Arg: slot})
}

func (h *Hierarchy) timedFill(slot uint64) {
	f := h.timed.Take(slot)
	h.hSideHitLat.Observe(h.k.Now() - f.start)
	h.completeFill(f.lineAddr, Line{Addr: f.lineAddr, Valid: true}, true)
}

// completeFill distributes a returned line to every merged waiter and,
// for memory fills, installs it in the LLC.
func (h *Hierarchy) completeFill(lineAddr uint64, line Line, fromMemory bool) {
	if fromMemory {
		h.insertLLC(line)
	}
	waiters := h.inflight[lineAddr]
	delete(h.inflight, lineAddr)
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
	h.k.Schedule(h.cfg.LLCLatency, sim.Event{Fn: h.wbInstallFn, Arg: h.wbs.Put(req.line)})
}

// wbInstall installs a served writeback once the LLC latency elapsed
// (Arg: h.wbs slot).
func (h *Hierarchy) wbInstall(slot uint64) {
	line := h.wbs.Take(slot)
	if DebugLine != 0 && line.Addr == DebugLine {
		ex := h.llc.Lookup(line.Addr, false)
		fmt.Printf("[%d] serveWB line %#x tx=%d uncommit=%v existing=%+v\n",
			h.k.Now(), line.Addr, line.TxID, line.Uncommitted, ex)
	}
	// Probe, not demand lookup: writeback installs must not skew
	// the demand miss-rate statistics.
	if l := h.llc.Lookup(line.Addr, false); l != nil {
		if h.hooks.BeforeLLCDirtyUpdate != nil {
			h.hooks.BeforeLLCDirtyUpdate(*l, line.TxID, line.Uncommitted)
			// The hook may have reshaped the set (placeholder
			// installs): re-resolve the line pointer.
			l = h.llc.Lookup(line.Addr, false)
			if l == nil {
				if installed := h.insertLLC(line); installed != nil {
					if h.hooks.OnLLCDirtyInstall != nil {
						h.hooks.OnLLCDirtyInstall(line.Addr)
					}
				} else {
					h.writebackToMemory(line)
				}
				h.wbLanded(line.TxID)
				return
			}
		}
		h.mergeFlags(l, line)
		l.Uncommitted = line.Uncommitted
		l.TxID = line.TxID
		if h.hooks.OnLLCDirtyInstall != nil {
			h.hooks.OnLLCDirtyInstall(line.Addr)
		}
	} else if installed := h.insertLLC(line); installed != nil {
		if h.hooks.OnLLCDirtyInstall != nil {
			h.hooks.OnLLCDirtyInstall(line.Addr)
		}
	} else {
		// Bypass under total pinning pressure: retire straight
		// to memory (counted; recovery strictness is checked by
		// the crash tests).
		h.writebackToMemory(line)
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
	if evicted.Valid && evicted.Dirty {
		if h.hooks.DropLLCEviction != nil && h.hooks.DropLLCEviction(evicted) {
			h.stats.DroppedEvictions++
			h.probe.Instant(obs.KLLCPDrop, -1, evicted.Addr, h.k.Now(), 0)
		} else {
			h.writebackToMemory(evicted)
		}
	}
	return installed
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
	if evicted.Valid && evicted.Dirty {
		if h.hooks.DropLLCEviction != nil && h.hooks.DropLLCEviction(evicted) {
			h.stats.DroppedEvictions++
			h.probe.Instant(obs.KLLCPDrop, -1, evicted.Addr, h.k.Now(), 0)
		} else {
			h.writebackToMemory(evicted)
		}
	}
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
	h.k.Schedule(h.cfg.L1Latency, sim.Event{Fn: h.flushWriteFn, Arg: slot})
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
	// Flushed lines remain tagged uncommitted while in transit; the
	// commit becomes visible atomically in the unpin walk below, so a
	// crash mid-flush never exposes a partially committed transaction.
	var lines []Line
	for _, c := range []*SetAssoc{h.l1[core], h.l2[core]} {
		c.ForEach(func(l *Line) {
			if DebugLine != 0 && l.Addr == DebugLine {
				fmt.Printf("[%d] FlushTx(%d) sees %s line %#x dirty=%v tx=%d\n",
					h.k.Now(), txID, c.Name(), l.Addr, l.Dirty, l.TxID)
			}
			if l.Dirty && l.TxID == txID {
				lines = append(lines, Line{
					Addr: l.Addr, Valid: true, Dirty: true,
					Persistent: l.Persistent, TxID: txID, Uncommitted: true,
				})
				l.Dirty = false
				l.TxID = 0
				l.Uncommitted = false
			}
		})
	}
	h.stats.FlushedLines += uint64(len(lines))
	h.commitLocks++
	flushStart := h.k.Now()
	nLines := uint64(len(lines))
	finish := sim.Event{Fn: func(uint64) {
		h.probe.Span(obs.KTxFlush, core, txID, flushStart, h.k.Now(), nLines)
		h.commitLocks--
		h.llc.ForEach(func(l *Line) {
			if l.TxID == txID {
				if DebugLine != 0 && l.Addr == DebugLine {
					fmt.Printf("[%d] unpin line %#x tx=%d\n", h.k.Now(), l.Addr, txID)
				}
				l.Uncommitted = false
				l.TxID = 0
			}
		})
		done.Fire()
	}}
	for _, line := range lines {
		h.queueWriteback(line)
	}
	// The commit completes when every writeback of this transaction has
	// landed in the LLC — both the flush's own lines and any mid-
	// transaction evictions still in transit.
	if h.txWB[txID] == 0 {
		h.k.Schedule(1, finish)
		return
	}
	if _, ok := h.txWBWait[txID]; ok {
		panic("cache: concurrent FlushTx for one transaction")
	}
	h.txWBWait[txID] = finish
}
