package mechanism

import (
	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
)

// kiln is the nonvolatile-LLC baseline [23]: transaction stores are
// tagged with their TxID through the hierarchy; at commit the core stalls
// while every transaction-dirty L1/L2 line is flushed into the
// (STT-RAM) LLC; uncommitted lines are pinned in the LLC until their
// transaction commits. Committed dirty lines write back to NVM lazily on
// eviction.
//
// The nvllc image tracks the value each dirty LLC line physically holds
// (snapshotted from the live image at install time), making the LLC's
// nonvolatile content recoverable after a crash.
type kiln struct {
	env   *Env
	hier  *cache.Hierarchy
	nvllc *memimage.Image

	// resume holds each core's commit continuation while its commit
	// flush is in progress; flushedFn (Arg: core) is bound once.
	resume    []sim.Event
	flushedFn func(uint64)

	// retained holds committed line versions whose write-back to NVM
	// has not yet become durable: old versions displaced by an
	// uncommitted overwrite (forced write-back) and ordinary LLC
	// evictions. Physically this data is still in the nonvolatile LLC
	// array (Kiln is multi-versioned, and an eviction leaves the array
	// only when its write lands), so recovery can read it; losing it
	// during the write-back's flight would be a durability hole.
	// retains numbers the retentions, so a landing write drops only
	// its own version.
	retained map[uint64]retainedVersion
	retains  uint64

	// ForcedWritebacks counts committed line versions written back
	// early because an uncommitted update was about to overwrite them.
	ForcedWritebacks uint64
}

type retainedVersion struct {
	vals [8]uint64
	gen  uint64
}

// kilnShadowBit maps a line address to its version-placeholder address:
// same LLC set (the bit is above every index bit), no collision with any
// real region.
const kilnShadowBit = uint64(1) << 62

func newKiln(env *Env) Mechanism {
	m := &kiln{
		env: env, nvllc: memimage.New(),
		resume:   make([]sim.Event, env.Cores),
		retained: make(map[uint64]retainedVersion),
	}
	m.flushedFn = m.flushed
	return m
}

func (m *kiln) Kind() Kind { return Kiln }

func (m *kiln) Hooks() cache.Hooks {
	return cache.Hooks{
		// Uncommitted transaction lines may not leave the LLC.
		AllowLLCVictim: func(l *cache.Line) bool { return !l.Uncommitted },
		// Preserve the committed version before an uncommitted
		// overwrite: write it back to NVM first (multi-versioning).
		BeforeLLCDirtyUpdate: func(old cache.Line, newTxID uint64, newUncommitted bool) {
			if old.Dirty && !old.Uncommitted && old.Persistent && newUncommitted {
				m.ForcedWritebacks++
				// Snapshot the committed version now: by the time
				// the write becomes durable the LLC line already
				// holds the uncommitted overwrite. Until then the old
				// version is RETAINED (it is still physically in the
				// NV-LLC array — Kiln is multi-versioned), so a crash
				// mid-flight cannot lose committed data.
				addr := old.Addr
				m.env.Mem.Write(addr, m.retain(addr, m.nvllc.ReadLine(addr)), sim.Event{})
				// Kiln is multi-versioned: the old committed copy
				// occupies a second LLC way until the overwriting
				// transaction commits. Versions are short-lived
				// (until the commit), so the capacity cost is
				// modelled by sampled placeholders in the same set.
				if m.ForcedWritebacks%4 == 0 {
					m.hier.InstallPlaceholder(addr^kilnShadowBit, addr)
				}
			}
		},
		// Snapshot the physical LLC content of every dirty install.
		OnLLCDirtyInstall: func(lineAddr uint64) {
			m.nvllc.CopyLine(m.env.Live, lineAddr)
		},
		// LLC evictions carry the LLC's (nvllc) version to NVM,
		// snapshotted at eviction time (the line may be reinstalled
		// with uncommitted data before the write drains). The evicted
		// version is retained until then: it has left the LLC's tag
		// array but is not yet in NVM.
		WritebackApply: func(lineAddr uint64) sim.Event {
			if !memaddr.IsPersistent(lineAddr) {
				return sim.Event{}
			}
			return m.retain(lineAddr, m.nvllc.ReadLine(lineAddr))
		},
	}
}

// retain keeps a committed line version recoverable while its write-back
// is in flight and returns the write's completion, which makes it durable
// and drops the retention unless a newer version of the line replaced it.
func (m *kiln) retain(addr uint64, vals [8]uint64) sim.Event {
	m.retains++
	gen := m.retains
	m.retained[addr] = retainedVersion{vals: vals, gen: gen}
	return sim.Event{Fn: func(uint64) {
		m.env.Durable.WriteLine(addr, vals)
		if r, ok := m.retained[addr]; ok && r.gen == gen {
			delete(m.retained, addr)
		}
	}}
}

func (m *kiln) Attach(h *cache.Hierarchy) { m.hier = h }

func (m *kiln) Rewrite(core int, r trace.Reader) trace.Reader { return r }

func (m *kiln) TxBegin(core int, txID uint64) {}

// tag namespaces per-core transaction ids into a globally unique line
// tag: every core's trace numbers its transactions from 1.
func (m *kiln) tag(core int, txID uint64) uint64 {
	return txID*64 + uint64(core)
}

// Store tags the line with its owning transaction so the hierarchy can
// pin and flush it. Shared lines pass the line arbiter first; on an
// abort nothing needs unwinding mechanism-side — the replayed attempt
// re-tags the same lines with the same transaction id, and only the
// eventual commit flush makes them durable.
func (m *kiln) Store(core int, txID uint64, addr, value uint64, _ sim.Event) cpu.StoreAction {
	switch m.env.Arb.Check(core, txID, addr) {
	case txcache.ArbRetry:
		return cpu.StoreAction{Retry: true}
	case txcache.ArbAbort:
		return cpu.StoreAction{Abort: true}
	}
	m.env.Arb.NoteWrite(core, addr)
	return cpu.StoreAction{TxTag: m.tag(core, txID), Uncommitted: true}
}

// TxEnd stalls the core while the transaction's dirty lines flush into
// the nonvolatile LLC; the commit becomes visible atomically when the
// flush completes and the lines unpin.
func (m *kiln) TxEnd(core int, txID uint64, resume sim.Event) bool {
	m.resume[core] = resume
	m.hier.FlushTx(core, m.tag(core, txID), sim.Event{Fn: m.flushedFn, Arg: uint64(core)})
	return true
}

// flushed completes a commit flush (Arg: core). Flush completion is
// Kiln's durability instant: the transaction's lines are in the
// nonvolatile LLC. Record the global commit order and release
// shared-line ownership here.
func (m *kiln) flushed(core uint64) {
	c := int(core)
	m.env.Oracle.Commit(c)
	m.env.Arb.ReleaseTxNow(c)
	resume := m.resume[c]
	m.resume[c] = sim.Event{}
	resume.Fire()
}

func (m *kiln) Drained() bool { return true }

// RecoveryCost walks the nonvolatile LLC and writes back every committed
// dirty persistent line.
func (m *kiln) RecoveryCost() RecoveryCost {
	scanned, writes := 0, len(m.retained)
	m.hier.LLC().ForEach(func(l *cache.Line) {
		scanned++
		if l.Dirty && !l.Uncommitted && l.Persistent {
			writes++
		}
	})
	return RecoveryCost{
		ScannedItems: scanned,
		NVMWrites:    writes,
		EstCycles:    estimateRecoveryCycles(scanned, writes),
	}
}

// Recover merges the nonvolatile LLC into NVM: first the retained old
// versions (displaced by uncommitted overwrites, write-back still in
// flight), then committed dirty lines — a newer committed LLC copy of the
// same line correctly overrides its retained predecessor. Uncommitted
// lines are discarded.
func (m *kiln) Recover(durable *memimage.Image) *memimage.Image {
	out := durable.Snapshot()
	for addr, r := range m.retained {
		out.WriteLine(addr, r.vals)
	}
	m.hier.LLC().ForEach(func(l *cache.Line) {
		if l.Dirty && !l.Uncommitted && l.Persistent {
			out.CopyLine(m.nvllc, l.Addr)
		}
	})
	return out
}
