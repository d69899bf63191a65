package mechanism

import (
	"fmt"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// sp is software-supported persistence: redo write-ahead logging in the
// NVM log region with clflush/sfence write-order control, the Figure 2(b)/3(a)
// code pattern. Each transaction becomes:
//
//	TX_BEGIN
//	  per persistent store: log bookkeeping instructions,
//	                        store(log.addr), store(log.value),
//	                        clflush(log), sfence
//	TX_END ->  store(commit record), clflush
//	           sfence                     // commit record durable
//	           in-place data stores       // cached; recovered via redo
//
// Write-order control is strict (per-entry flush + fence), the
// conservative software discipline of the clflush/mfence era the paper's
// SP baseline represents (§2.1): every logged store serializes behind an
// NVM write, which is exactly the overhead the accelerator eliminates.
//
// In-place stores are deferred past the commit record (Mnemosyne-style
// write-through logging), so an uncommitted transaction can never leak
// in-place data into NVM via cache evictions — recovery is exactly "replay
// the log of every transaction whose commit record is durable". That
// makes the commit record's arrival in the durable image each
// transaction's durable instant.
type sp struct {
	env    *Env
	copier *liveCopier
	logs   []memaddr.Range
	// cursor is each core's next free log slot; durable is its first log
	// slot not yet scanned in the durable image (every slot before it is
	// durable, every commit record before it is folded into the oracle).
	cursor  []uint64
	durable []uint64
	// shared marks a workload with a cross-core shared region. Recovery
	// then replays the logs in global durable-commit order: order lists
	// the committing core as each commit record lands.
	shared bool
	order  []int
	// logLandedFn is the durable update of a written-back log line
	// (Arg: line address), bound once.
	logLandedFn func(uint64)

	// waiters are the commit continuations of the cores stalled in
	// pcommit, in TxEnd order; SP holds the kernel's clock once for each.
	// checkFn is the post-drain check, bound once.
	waiters []sim.Event
	checkFn func(uint64)
}

// spLogCost is the bookkeeping instruction count per logged store — the
// "extra instructions that read and write the addresses and values" of
// §2.1.
const spLogCost = 2

// spCommitMagic marks a commit record; it classifies as an invalid
// address so it can never collide with a logged store address.
const spCommitMagic = ^uint64(0) - 0xC0331731

func newSP(env *Env) Mechanism {
	logs := make([]memaddr.Range, env.Cores)
	for c := range logs {
		logs[c] = memaddr.PerCoreLog(c)
	}
	cursor := make([]uint64, env.Cores)
	for c, r := range logs {
		cursor[c] = r.Base
	}
	m := &sp{
		env: env, copier: newLiveCopier(env), logs: logs,
		cursor: cursor, durable: append([]uint64(nil), cursor...),
		// Arb is wired exactly when the workload has a shared region.
		shared:  env.Arb != nil,
		waiters: make([]sim.Event, 0, env.Cores),
	}
	m.checkFn = m.pcommitCheck
	m.logLandedFn = m.logLanded
	env.Mem.OnNVMDrain(m.nvmDrained)
	return m
}

func (m *sp) Hooks() cache.Hooks {
	return cache.Hooks{
		WritebackApply: m.writebackApply,
	}
}

// writebackApply is the durable update of a written-back line: the live
// line's contents, and for a log line also the scan for the commit
// records it made durable. Every log word reaches the durable image
// through here.
func (m *sp) writebackApply(lineAddr uint64) sim.Event {
	if memaddr.Classify(lineAddr) == memaddr.SpaceNVMLog {
		return sim.Event{Fn: m.logLandedFn, Arg: lineAddr}
	}
	return m.copier.apply(lineAddr)
}

// logLanded copies a log line into the durable image, then advances its
// core's durable scan over the newly durable log slots. A commit record
// found there is its transaction's durable instant. The scan stops at
// the first hole, as recovery does; a slot is written once, so every
// slot behind the scan stays as scanned.
func (m *sp) logLanded(lineAddr uint64) {
	m.copier.copyLine(lineAddr)
	core := int((lineAddr - memaddr.NVMLogBase) / memaddr.PerCoreLogSize)
	for pos := m.durable[core]; pos < m.cursor[core]; pos += 16 {
		a := m.env.Durable.ReadWord(pos)
		if a == 0 {
			break
		}
		if a == spCommitMagic {
			m.env.Oracle.Commit(core)
			if m.shared {
				m.order = append(m.order, core)
			}
		}
		m.durable[core] = pos + 16
	}
}

func (m *sp) Attach(*cache.Hierarchy) {}

// logAlloc hands out the next 2-word log slot for core.
func (m *sp) logAlloc(core int) uint64 {
	addr := m.cursor[core]
	m.cursor[core] += 2 * memaddr.WordSize
	if m.cursor[core] > m.logs[core].End() {
		panic(fmt.Sprintf("mechanism: sp log for core %d exhausted", core))
	}
	return addr
}

// Rewrite injects the logging code.
func (m *sp) Rewrite(core int, r trace.Reader) trace.Reader {
	return &spReader{m: m, core: core, src: r}
}

type spReader struct {
	m    *sp
	core int
	src  trace.Reader

	// queue[head:] is the expansion not yet handed out; the slice is
	// reset once consumed, so its storage is reused.
	queue    []trace.Record
	head     int
	deferred []trace.Record
	inTx     bool
}

func (r *spReader) Next() (trace.Record, bool) {
	for r.head == len(r.queue) {
		r.queue = r.queue[:0]
		r.head = 0
		rec, ok := r.src.Next()
		if !ok {
			return trace.Record{}, false
		}
		r.expand(rec)
	}
	rec := r.queue[r.head]
	r.head++
	return rec, true
}

func (r *spReader) expand(rec trace.Record) {
	switch {
	case rec.Kind == trace.KindTxBegin:
		r.inTx = true
		r.queue = append(r.queue, rec)

	case rec.Kind == trace.KindStore && r.inTx && memaddr.IsPersistent(rec.Addr):
		slot := r.m.logAlloc(r.core)
		r.queue = append(r.queue,
			trace.Compute(spLogCost),
			trace.Store(slot, rec.Addr),
			trace.Store(slot+8, rec.Value),
			trace.CLFlush(slot),
			trace.SFence(),
		)
		r.deferred = append(r.deferred, rec)

	case rec.Kind == trace.KindTxEnd:
		r.inTx = false
		slot := r.m.logAlloc(r.core)
		r.queue = append(r.queue,
			trace.Store(slot, spCommitMagic),
			trace.Store(slot+8, rec.TxID),
			trace.CLFlush(slot),
			trace.SFence(),
			rec,
		)
		r.queue = append(r.queue, r.deferred...)
		r.deferred = r.deferred[:0]

	default:
		r.queue = append(r.queue, rec)
	}
}

// TxEnd retires after the commit record's sfence, so the transaction is
// already durable (logLanded saw its record land). The remaining cost is
// pcommit (Figure 3(a)): the core stalls until the NVM controllers'
// write queues drain. The waiting core sleeps; SP holds the clock on its
// behalf, so every cycle of the wait counts as stepped, as for a core
// that re-reads the queues each cycle, and SkippedCycles does not move.
func (m *sp) TxEnd(core int, txID uint64, resume sim.Event) bool {
	if m.env.Mem.PendingNVMWrites() == 0 {
		return false
	}
	m.waiters = append(m.waiters, resume)
	m.env.K.Hold(true)
	return true
}

// nvmDrained runs in the tick that issues the NVM space's last queued
// write. While cores wait it schedules the pcommit check for the next
// cycle. The NVM channels tick first, so the check fires before any
// event a later component schedules for that cycle in this tick: the
// first read of the drained queues, as DESIGN.md §10 argues.
func (m *sp) nvmDrained() {
	if len(m.waiters) > 0 {
		m.env.K.Schedule(1, sim.Event{Fn: m.checkFn})
	}
}

// pcommitCheck resumes every waiting core, in TxEnd order, if the NVM
// write queues are still empty; a write enqueued since the drain makes
// them wait for the next one.
func (m *sp) pcommitCheck(uint64) {
	if m.env.Mem.PendingNVMWrites() != 0 {
		return
	}
	for i, resume := range m.waiters {
		m.waiters[i] = sim.Event{}
		m.env.K.Hold(false)
		resume.Fire()
	}
	m.waiters = m.waiters[:0]
}

func (m *sp) Store(core int, txID uint64, addr, value uint64, _ sim.Event) cpu.StoreAction {
	return cpu.StoreAction{}
}

func (m *sp) Drained() bool { return true }

// Recover replays the durable logs. A log entry is applied when its
// transaction's commit record is reached; a hole (a zero address) ends a
// core's log, because nothing durable beyond it can be committed (the
// pre-commit sfence orders every entry before its record). In shared
// mode the transactions are replayed in global durable-commit order:
// per core the log is in program order, so order's core sequence,
// recorded as each commit record landed, reconstructs exactly the order
// the transactions became durable in, regardless of the order their
// deferred in-place stores later reached NVM. A tail pass then scans each
// core's log on to its first hole: in core-private mode (order is empty)
// it replays every transaction, in shared mode it finds no further
// commit record and only counts. Every entry scanned counts, every entry
// applied is an NVM write.
func (m *sp) Recover(durable *memimage.Image) (*memimage.Image, RecoveryCost) {
	out := durable.Snapshot()
	pos := make([]uint64, m.env.Cores)
	for c := range pos {
		pos[c] = m.logs[c].Base
	}
	var pending []trace.Write
	scanned, writes := 0, 0
	// replay scans core's log from pos[core], applying the pending
	// entries at each commit record, and stops at the first hole or,
	// with once, just past the first commit record.
	replay := func(core int, once bool) {
		pending = pending[:0]
		for end := m.logs[core].End(); pos[core] < end; pos[core] += 16 {
			a := durable.ReadWord(pos[core])
			if a == 0 {
				return
			}
			scanned++
			if a != spCommitMagic {
				pending = append(pending, trace.Write{Addr: a, Value: durable.ReadWord(pos[core] + 8)})
				continue
			}
			for _, w := range pending {
				out.WriteWord(w.Addr, w.Value)
			}
			writes += len(pending)
			pending = pending[:0]
			if once {
				pos[core] += 16
				return
			}
		}
	}
	for _, core := range m.order {
		replay(core, true)
	}
	for core := range pos {
		replay(core, false)
	}
	return out, recoveryCost(scanned, writes)
}
