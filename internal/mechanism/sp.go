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
// the log of every transaction whose commit record is durable".
type sp struct {
	env       *Env
	logs      []memaddr.Range
	cursor    []uint64
	committed []uint64

	// resume holds each core's commit continuation while its pcommit
	// poll waits for the NVM write queues to drain; pollFn is the poll
	// handler (Arg: core), bound once.
	resume []sim.Event
	pollFn func(uint64)
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
		env: env, logs: logs, cursor: cursor, committed: make([]uint64, env.Cores),
		resume: make([]sim.Event, env.Cores),
	}
	m.pollFn = m.pcommitPoll
	return m
}

func (m *sp) Kind() Kind { return SP }

func (m *sp) Hooks() cache.Hooks {
	return cache.Hooks{
		WritebackApply: newLiveCopier(m.env).apply,
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

func (m *sp) TxBegin(core int, txID uint64) {}

// TxEnd retires after the commit record's sfence, so the transaction is
// durable by construction at this point. The remaining cost is pcommit
// (Figure 3(a)): the core stalls until the NVM controller's write queue
// drains.
func (m *sp) TxEnd(core int, txID uint64, resume sim.Event) bool {
	m.committed[core]++
	// SP does not arbitrate (in-place stores are deferred past the
	// commit record, so there is no conflict window), but it still
	// reports its commit order: shared-mode recovery replays the logs
	// globally in this order, which overrides whatever order the
	// deferred in-place stores later reach NVM in.
	m.env.noteDurableCommit(core)
	if m.env.Mem.PendingNVMWrites() == 0 {
		return false
	}
	m.resume[core] = resume
	m.env.K.Schedule(1, sim.Event{Fn: m.pollFn, Arg: uint64(core)})
	return true
}

// pcommitPoll re-checks the NVM write queues each cycle until they have
// drained, then resumes the core (Arg: core).
func (m *sp) pcommitPoll(core uint64) {
	if m.env.Mem.PendingNVMWrites() == 0 {
		resume := m.resume[core]
		m.resume[core] = sim.Event{}
		resume.Fire()
		return
	}
	m.env.K.Schedule(1, sim.Event{Fn: m.pollFn, Arg: core})
}

func (m *sp) Store(core int, txID uint64, addr, value uint64) cpu.StoreAction {
	return cpu.StoreAction{}
}

func (m *sp) Drained() bool { return true }

// DurablyCommitted counts the commit records present in the DURABLE log —
// the same source recovery reads. (The retirement-time counter would lag
// by the few cycles between the record's clflush completing and TX_END
// retiring, misclassifying a crash inside that window.)
func (m *sp) DurablyCommitted(core int) uint64 {
	var n uint64
	for pos := m.logs[core].Base; pos < m.cursor[core]; pos += 16 {
		a := m.env.Durable.ReadWord(pos)
		if a == 0 {
			break
		}
		if a == spCommitMagic {
			n++
		}
	}
	return n
}

// RecoveryCost scans every durable log record and replays the committed
// entries.
func (m *sp) RecoveryCost() RecoveryCost {
	scanned, writes := 0, 0
	for core := 0; core < m.env.Cores; core++ {
		pending := 0
		for pos := m.logs[core].Base; pos < m.cursor[core]; pos += 16 {
			a := m.env.Durable.ReadWord(pos)
			if a == 0 {
				break
			}
			scanned++
			if a == spCommitMagic {
				writes += pending
				pending = 0
			} else {
				pending++
			}
		}
	}
	return RecoveryCost{
		ScannedItems: scanned,
		NVMWrites:    writes,
		EstCycles:    estimateRecoveryCycles(scanned, writes),
	}
}

// Recover replays each core's durable log: accumulate (addr, value)
// entries, apply them when a commit record appears, stop at the first
// hole (a zero address — nothing durable beyond it can be committed,
// because the pre-commit sfence orders every entry before its record).
func (m *sp) Recover(durable *memimage.Image) *memimage.Image {
	if m.env.Commits != nil {
		return m.recoverGlobal(durable)
	}
	out := durable.Snapshot()
	for core := 0; core < m.env.Cores; core++ {
		var pending []trace.Write
		for pos := m.logs[core].Base; pos < m.logs[core].End(); pos += 16 {
			a := durable.ReadWord(pos)
			v := durable.ReadWord(pos + 8)
			switch {
			case a == 0:
				pos = m.logs[core].End() // hole: stop scanning
			case a == spCommitMagic:
				for _, w := range pending {
					out.WriteWord(w.Addr, w.Value)
				}
				pending = pending[:0]
			default:
				pending = append(pending, trace.Write{Addr: a, Value: v})
			}
		}
	}
	return out
}

// recoverGlobal replays the per-core logs interleaved in global durable
// commit order — the shared-mode serialization discipline. Per core the
// log is in program order, so a cursor per core plus the commit log's
// core sequence reconstructs exactly the order the transactions became
// durable in, regardless of the order their deferred in-place stores
// later reached NVM.
func (m *sp) recoverGlobal(durable *memimage.Image) *memimage.Image {
	out := durable.Snapshot()
	pos := make([]uint64, m.env.Cores)
	for c := range pos {
		pos[c] = m.logs[c].Base
	}
	for _, core := range m.env.Commits.Order {
		var pending []trace.Write
		p := pos[core]
		for p < m.logs[core].End() {
			a := durable.ReadWord(p)
			v := durable.ReadWord(p + 8)
			p += 16
			if a == 0 {
				// Hole before the next commit record: nothing durable
				// beyond it, stop replaying this core.
				p = m.logs[core].End()
				break
			}
			if a == spCommitMagic {
				for _, w := range pending {
					out.WriteWord(w.Addr, w.Value)
				}
				break
			}
			pending = append(pending, trace.Write{Addr: a, Value: v})
		}
		pos[core] = p
	}
	return out
}
