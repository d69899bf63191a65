package mechanism

import (
	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
)

// optimal is native execution: stores flow through the unmodified
// hierarchy, transactions are one-cycle markers, and nothing guarantees
// that committed data reaches NVM atomically — which is exactly what the
// crash tests demonstrate.
type optimal struct {
	env *Env
}

func newOptimal(env *Env) Mechanism {
	return &optimal{env: env}
}

func (m *optimal) Hooks() cache.Hooks {
	return cache.Hooks{
		WritebackApply: newLiveCopier(m.env).apply,
	}
}

func (m *optimal) Attach(*cache.Hierarchy) {}

func (m *optimal) Rewrite(core int, r trace.Reader) trace.Reader { return r }

func (m *optimal) TxEnd(core int, txID uint64, resume sim.Event) bool {
	// "Commit" is only an instruction boundary: nothing becomes durable.
	// The "durable" instant for Optimal's oracle bookkeeping is the
	// commit marker itself; ownership releases with it.
	m.env.Oracle.Commit(core)
	m.env.Arb.ReleaseTxNow(core)
	return false
}

func (m *optimal) Store(core int, txID uint64, addr, value uint64, _ sim.Event) cpu.StoreAction {
	// Optimal offers no persistence, but it arbitrates shared lines like
	// the hardware mechanisms do: the IPC-vs-Optimal comparison under
	// contention is apples-to-apples only if the conflict window costs
	// every mechanism the same aborts.
	switch m.env.Arb.Check(core, txID, addr) {
	case txcache.ArbRetry:
		return cpu.StoreAction{Retry: true}
	case txcache.ArbAbort:
		return cpu.StoreAction{Abort: true}
	}
	m.env.Arb.NoteWrite(core, addr)
	return cpu.StoreAction{}
}

func (m *optimal) Drained() bool { return true }

// Recover returns the durable image untouched, at zero cost: with no
// persistence support there is nothing to recover from, and the image
// may well be an inconsistent mix of old and new values.
func (m *optimal) Recover(durable *memimage.Image) (*memimage.Image, RecoveryCost) {
	return durable.Snapshot(), RecoveryCost{}
}
