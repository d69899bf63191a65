package mechanism

import (
	"fmt"
	"slices"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/txcache"
)

// conflictGuard is the per-mechanism conflict-detection front end over the
// shared txcache.LineArbiter: the line-ownership probe every transactional
// store to the cross-core shared region passes through before it may enter
// a durability path. It is built only when the environment carries an
// arbiter (shared workloads); a nil guard is a no-op on every method, so
// core-private workloads pay nothing.
//
// Protocol, per store to a shared line L:
//
//  1. already held by this core → proceed;
//  2. a granted verdict for L is waiting → take ownership, proceed;
//  3. a denied verdict for L is waiting → the core lost arbitration:
//     clear the transaction's line bookkeeping (ownership it acquired is
//     released as far as durability allows) and tell the core to abort;
//  4. otherwise → ask the arbiter, which decides at once into the core's
//     verdict slot, and stall the store one cycle; the retry takes case
//     2 or 3.
//
// Ownership is held from first touch until the owning transaction's
// writes to the line are durable; the release point is mechanism-specific
// and expressed through commitPending/onAck (TCache drain acks) and
// releaseTxNow (commit-record apply, flush completion, or plain TX_END).
type conflictGuard struct {
	env   *Env
	cores []guardCore
}

type guardCore struct {
	// held marks shared lines this core currently owns.
	held map[uint64]bool
	// curLines counts the open transaction's durable writes per line.
	curLines map[uint64]int
	// pending counts committed-but-not-yet-durable writes per line
	// (TCache drain path); ownership releases when it reaches zero.
	pending map[uint64]int
	// sorted is sortedHeld's reused result buffer.
	sorted []uint64
}

type guardDecision int

const (
	gdProceed guardDecision = iota
	gdRetry
	gdAbort
)

// newConflictGuard builds the guard, or nil when env carries no arbiter.
func newConflictGuard(env *Env) *conflictGuard {
	if env.Arb == nil {
		return nil
	}
	g := &conflictGuard{env: env, cores: make([]guardCore, env.Cores)}
	for i := range g.cores {
		g.cores[i] = guardCore{
			held:     make(map[uint64]bool),
			curLines: make(map[uint64]int),
			pending:  make(map[uint64]int),
		}
	}
	return g
}

// check runs the ownership probe for one store.
func (g *conflictGuard) check(core int, txID, addr uint64) guardDecision {
	if g == nil || txID == 0 || !memaddr.IsShared(addr) {
		return gdProceed
	}
	gc := &g.cores[core]
	line := memaddr.LineAddr(addr)
	if gc.held[line] {
		return gdProceed
	}
	arb := g.env.Arb
	v := arb.Verdict(core)
	if v.State != txcache.ArbNone && v.Line != line {
		panic(fmt.Sprintf("mechanism: core %d verdict for line %#x while storing to %#x", core, v.Line, line))
	}
	switch v.State {
	case txcache.ArbGranted:
		arb.ClearVerdict(core)
		gc.held[line] = true
		return gdProceed
	case txcache.ArbDenied:
		arb.ClearVerdict(core)
		g.releaseTxNow(core)
		return gdAbort
	}
	arb.Acquire(line, core)
	return gdRetry
}

// noteWrite records one durable write of the open transaction to addr's
// line. Call after check proceeded and the store entered a durability
// path; non-shared addresses are ignored.
func (g *conflictGuard) noteWrite(core int, addr uint64) {
	if g == nil || !memaddr.IsShared(addr) {
		return
	}
	g.cores[core].curLines[memaddr.LineAddr(addr)]++
}

// sortedHeld returns this core's held lines in address order, so arbiter
// mutations never depend on map iteration order. The result reuses a
// per-core buffer: it is valid until the next call for the same core.
func (g *conflictGuard) sortedHeld(core int) []uint64 {
	gc := &g.cores[core]
	lines := gc.sorted[:0]
	for l := range gc.held {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	gc.sorted = lines
	return lines
}

// tryRelease drops ownership of line if nothing keeps it: no open-tx
// writes, no committed writes still draining.
func (g *conflictGuard) tryRelease(core int, line uint64) {
	gc := &g.cores[core]
	if gc.held[line] && gc.curLines[line] == 0 && gc.pending[line] == 0 {
		g.env.Arb.Release(line, core)
		delete(gc.held, line)
	}
}

// commitPending moves the committing transaction's per-line write counts
// into the drain-pending set and sweeps ownership (lines acquired but
// never written release immediately; written lines release as their
// drain acks arrive).
func (g *conflictGuard) commitPending(core int) {
	if g == nil {
		return
	}
	gc := &g.cores[core]
	for l, n := range gc.curLines {
		gc.pending[l] += n
		delete(gc.curLines, l)
	}
	for _, l := range g.sortedHeld(core) {
		g.tryRelease(core, l)
	}
}

// releaseTxNow drops the open transaction's line bookkeeping and every
// ownership nothing else keeps — the release point for a transaction
// that lost arbitration, and for mechanisms whose commit instant makes
// all the transaction's writes durable at once (flush completion,
// commit-record apply, plain TX_END).
func (g *conflictGuard) releaseTxNow(core int) {
	if g == nil {
		return
	}
	gc := &g.cores[core]
	for l := range gc.curLines {
		delete(gc.curLines, l)
	}
	for _, l := range g.sortedHeld(core) {
		g.tryRelease(core, l)
	}
}

// onAck observes one TC drain acknowledgment (TCache release path):
// when a shared line's last pending write drains, ownership releases.
func (g *conflictGuard) onAck(core int, addr uint64) {
	if g == nil || !memaddr.IsShared(addr) {
		return
	}
	gc := &g.cores[core]
	line := memaddr.LineAddr(addr)
	if n, ok := gc.pending[line]; ok {
		if n <= 1 {
			delete(gc.pending, line)
			g.tryRelease(core, line)
		} else {
			gc.pending[line] = n - 1
		}
	}
}
