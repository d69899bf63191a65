package txcache

import (
	"fmt"

	"pmemaccel/internal/memaddr"
)

// LineArbiter is the machine-wide ownership directory for cache lines in
// the cross-core shared persistent region: the conflict-detection half of
// contended transactions, and the one place shared-line ownership lives.
// Every transactional store to a shared line passes Check before it may
// enter a durability path; ownership is granted first-come-first-served
// and held until the owning transaction's writes to the line are durable.
// A denied request makes the requester the loser: it aborts its
// transaction and retries after a bounded backoff. The owner never
// aborts, so arbitration is deterministic and livelock-free.
//
// Protocol, per store to a shared line L:
//
//  1. L is held by this core → proceed;
//  2. a denial for L is pending → the core lost arbitration: drop the
//     transaction's open writes (ownership it acquired releases as far
//     as durability allows) and abort;
//  3. otherwise decide at once: a free L is granted (written to owner
//     and to the core's held set), an owned L is denied (the denial
//     pends). Either way the store stalls one cycle, and its retry takes
//     case 1 or 2.
//
// The protocol is single-threaded: the kernel ticks cores one at a time
// in registration order, so requests made in the same cycle are decided
// in that order. Each core has at most one request in flight.
//
// Ownership releases at a mechanism-specific point: the last TC drain ack
// of a line after CommitPending (TCache), or ReleaseTxNow (commit-record
// apply, Kiln's flush completion, Optimal's TX_END, a lost arbitration).
// A nil *LineArbiter means the workload has no shared region: every call
// on it proceeds and does nothing.
type LineArbiter struct {
	// owner holds each shared line's owning core plus one (0 = free;
	// memaddr.MaxCores fits a byte), indexed by the line's number in
	// the shared region. It grows to the highest shared line touched.
	owner []uint8
	cores []arbCore
	stats ArbStats
}

// arbCore is one core's view of its shared lines.
type arbCore struct {
	// held lists the lines this core owns, in acquire order. A
	// transaction touches a handful of shared lines, so a scan beats a
	// map.
	held []heldLine
	// denied is the line of a pending denial, 0 when none (no shared
	// line sits at address 0).
	denied uint64
}

// heldLine is one owned line and the writes that keep it owned.
type heldLine struct {
	line uint64
	// open counts the open transaction's durable writes to the line.
	open int
	// draining counts committed writes not yet durable (TCache drain
	// path); ownership releases when both counts are zero.
	draining int
}

// ArbStats counts arbitration outcomes machine-wide.
type ArbStats struct {
	// Acquires is the number of ownership requests decided.
	Acquires uint64
	// Conflicts is the number of requests denied because another core
	// held the line.
	Conflicts uint64
	// Releases is the number of ownership drops.
	Releases uint64
}

// ArbDecision is Check's answer to one store.
type ArbDecision int

const (
	// ArbProceed: the store may enter its durability path.
	ArbProceed ArbDecision = iota
	// ArbRetry: a request was just decided; stall one cycle and retry.
	ArbRetry
	// ArbAbort: the core lost arbitration and must abort.
	ArbAbort
)

// NewLineArbiter returns an arbiter for an nCores-wide machine.
func NewLineArbiter(nCores int) *LineArbiter {
	return &LineArbiter{cores: make([]arbCore, nCores)}
}

// ownerSlot returns the owner-table slot of a shared line, growing the
// table to hold it.
func (a *LineArbiter) ownerSlot(line uint64) *uint8 {
	i := int((line - memaddr.SharedNVMBase) / memaddr.LineSize)
	if i >= len(a.owner) {
		a.owner = append(a.owner, make([]uint8, i+1-len(a.owner))...)
	}
	return &a.owner[i]
}

// Check runs the ownership protocol for one store by core's transaction
// txID to addr. Non-transactional stores and stores outside the shared
// region proceed untouched.
func (a *LineArbiter) Check(core int, txID, addr uint64) ArbDecision {
	if a == nil || txID == 0 || !memaddr.IsShared(addr) {
		return ArbProceed
	}
	c := &a.cores[core]
	line := memaddr.LineAddr(addr)
	if c.find(line) >= 0 {
		return ArbProceed
	}
	if c.denied != 0 {
		if c.denied != line {
			panic(fmt.Sprintf("txcache: core %d denied line %#x while storing to %#x", core, c.denied, line))
		}
		c.denied = 0
		a.ReleaseTxNow(core)
		return ArbAbort
	}
	a.stats.Acquires++
	if own := a.ownerSlot(line); *own != 0 {
		a.stats.Conflicts++
		c.denied = line
	} else {
		*own = uint8(core + 1)
		c.held = append(c.held, heldLine{line: line})
	}
	return ArbRetry
}

// NoteWrite records one durable write of core's open transaction to
// addr's line. Call it after Check proceeded and the store entered a
// durability path; lines the core does not hold are ignored.
func (a *LineArbiter) NoteWrite(core int, addr uint64) {
	if a == nil || !memaddr.IsShared(addr) {
		return
	}
	c := &a.cores[core]
	if i := c.find(memaddr.LineAddr(addr)); i >= 0 {
		c.held[i].open++
	}
}

// CommitPending moves the committing transaction's writes to draining and
// sweeps core's lines: lines acquired but never written release now,
// written lines release as their drain acks arrive (DrainAck).
func (a *LineArbiter) CommitPending(core int) {
	if a == nil {
		return
	}
	held := a.cores[core].held
	for i := range held {
		held[i].draining += held[i].open
		held[i].open = 0
	}
	a.sweep(core)
}

// ReleaseTxNow drops the open transaction's writes and releases every
// line nothing else keeps: the release point for a transaction that lost
// arbitration, and for mechanisms whose commit instant makes all the
// transaction's writes durable at once (commit-record apply, flush
// completion, plain TX_END).
func (a *LineArbiter) ReleaseTxNow(core int) {
	if a == nil {
		return
	}
	held := a.cores[core].held
	for i := range held {
		held[i].open = 0
	}
	a.sweep(core)
}

// DrainAck observes one TC drain acknowledgment of core's write to addr:
// when a line's last draining write is durable and the open transaction
// has not written it again, ownership releases.
func (a *LineArbiter) DrainAck(core int, addr uint64) {
	if a == nil || !memaddr.IsShared(addr) {
		return
	}
	c := &a.cores[core]
	i := c.find(memaddr.LineAddr(addr))
	if i < 0 || c.held[i].draining == 0 {
		return
	}
	c.held[i].draining--
	if c.held[i].draining == 0 && c.held[i].open == 0 {
		a.release(core, c.held[i].line)
		c.held = append(c.held[:i], c.held[i+1:]...)
	}
}

// sweep releases every line of core with no open and no draining writes.
// Release order is unobservable — each release is one owner-slot clear and
// one counter increment — so the held list needs no sort.
func (a *LineArbiter) sweep(core int) {
	c := &a.cores[core]
	kept := c.held[:0]
	for _, h := range c.held {
		if h.open == 0 && h.draining == 0 {
			a.release(core, h.line)
		} else {
			kept = append(kept, h)
		}
	}
	c.held = kept
}

// release drops core's ownership of line. Releasing a line the core does
// not own is a protocol bug and panics.
func (a *LineArbiter) release(core int, line uint64) {
	own := a.ownerSlot(line)
	if *own != uint8(core+1) {
		panic("txcache: LineArbiter release of a line the core does not own")
	}
	*own = 0
	a.stats.Releases++
}

// find returns the index of line in c's held list, or -1.
func (c *arbCore) find(line uint64) int {
	for i := range c.held {
		if c.held[i].line == line {
			return i
		}
	}
	return -1
}

// Stats returns the machine-wide arbitration counters.
func (a *LineArbiter) Stats() ArbStats { return a.stats }
