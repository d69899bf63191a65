package trace

import (
	"fmt"

	"pmemaccel/internal/memimage"
)

// Write is one durable word update, the unit of the recovery oracle.
type Write struct {
	Addr  uint64
	Value uint64
}

// Oracle is the machine-wide commit-order recovery oracle: the NVM image
// a crash at this instant must recover to. Each core's Generator queues
// a transaction's persistent write set when the core pulls its TX_END
// record (SetOracle); generation may run chunks ahead of the machine, but
// a set reaches the oracle only when the machine reaches the transaction.
// The mechanism calls Commit at the transaction's durable instant, which
// pops the core's oldest queued set and folds it into the image. A core's
// transactions commit in program order, so the FIFO position alone names
// the transaction, and folding at the durable instant orders cross-core
// writes to a shared word exactly as the machine serialized them. Memory
// is the base image plus O(transactions in flight). Every method runs on
// the machine's goroutine.
type Oracle struct {
	img   *memimage.Image
	cores []oracleQueue
}

// oracleQueue is one core's FIFO of pulled, not yet durable write
// sets, stored back to back in one reused buffer.
type oracleQueue struct {
	writes []Write
	// ends[i] is the end offset in writes of queued set i; sets before
	// head are folded.
	ends []int
	head int

	committed uint64
	peak      int
}

// NewOracle returns an oracle for cores cores whose image starts as base
// (the durable state at cycle 0), which it takes ownership of.
func NewOracle(cores int, base *memimage.Image) *Oracle {
	return &Oracle{img: base, cores: make([]oracleQueue, cores)}
}

// queue appends one pulled transaction's write set to core's FIFO,
// first dropping the sets already folded.
func (o *Oracle) queue(core int, ws []Write) {
	q := &o.cores[core]
	if q.head > 0 {
		off := q.ends[q.head-1]
		q.writes = q.writes[:copy(q.writes, q.writes[off:])]
		q.ends = q.ends[:copy(q.ends, q.ends[q.head:])]
		for i := range q.ends {
			q.ends[i] -= off
		}
		q.head = 0
	}
	q.writes = append(q.writes, ws...)
	q.ends = append(q.ends, len(q.writes))
	q.peak = max(q.peak, len(q.ends))
}

// Commit records that core's oldest pending transaction just became
// durably committed: its write set folds into the image.
func (o *Oracle) Commit(core int) {
	q := &o.cores[core]
	if q.head == len(q.ends) {
		panic(fmt.Sprintf("trace: oracle: core %d committed a transaction it never pulled", core))
	}
	start := 0
	if q.head > 0 {
		start = q.ends[q.head-1]
	}
	for _, w := range q.writes[start:q.ends[q.head]] {
		o.img.WriteWord(w.Addr, w.Value)
	}
	q.head++
	q.committed++
}

// Committed returns how many of core's transactions are durably
// committed: the prefix a crash right now must recover to.
func (o *Oracle) Committed(core int) uint64 { return o.cores[core].committed }

// PeakPending returns the most write sets core ever had queued at once
// (pulled, not yet durable).
func (o *Oracle) PeakPending(core int) int { return o.cores[core].peak }

// Image returns the expected image: the base plus every durably
// committed write set, folded in durable-commit order. Callers must not
// modify it.
func (o *Oracle) Image() *memimage.Image { return o.img }
