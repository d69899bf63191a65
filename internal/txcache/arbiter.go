package txcache

// LineArbiter is the machine-wide ownership directory for cache lines in
// the cross-core shared persistent region: the conflict-detection half of
// contended transactions. A core must own a shared line before a
// transactional store to it may proceed; ownership is granted
// first-come-first-served and held until the owning transaction's writes
// to the line are durable (the release point is mechanism-specific — TC
// drain ack, commit-record apply, flush completion). A denied request
// makes the requester the loser: it aborts its transaction and retries
// after a bounded backoff. The owner never aborts, so arbitration is
// deterministic and livelock-free.
//
// The protocol is single-threaded: the kernel ticks cores one at a time
// in registration order, so requests made in the same cycle are decided
// in that order. Acquire decides at once and writes the requester's
// verdict slot; the requester's store stalls one cycle and consumes the
// verdict on its retry, so each core has at most one request in flight.
type LineArbiter struct {
	owner   map[uint64]int // line -> owning core
	verdict []ArbVerdict   // per-core single verdict slot
	stats   ArbStats
}

// ArbVerdict is a core's private view of its last arbitration request.
type ArbVerdict struct {
	Line  uint64
	State ArbState
}

// ArbState is the lifecycle of one acquire request.
type ArbState int

const (
	// ArbNone: no request outstanding.
	ArbNone ArbState = iota
	// ArbGranted: the core owns the line; the store may proceed.
	ArbGranted
	// ArbDenied: another core owns the line; the requester must abort.
	ArbDenied
)

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

// NewLineArbiter returns an arbiter for an nCores-wide machine.
func NewLineArbiter(nCores int) *LineArbiter {
	return &LineArbiter{
		owner:   make(map[uint64]int),
		verdict: make([]ArbVerdict, nCores),
	}
}

// Acquire decides ownership of line for core and writes the core's
// verdict slot.
func (a *LineArbiter) Acquire(line uint64, core int) {
	a.stats.Acquires++
	if own, held := a.owner[line]; held && own != core {
		a.stats.Conflicts++
		a.verdict[core] = ArbVerdict{Line: line, State: ArbDenied}
		return
	}
	a.owner[line] = core
	a.verdict[core] = ArbVerdict{Line: line, State: ArbGranted}
}

// Release drops core's ownership of line. Releasing a line the core does
// not own is a protocol bug and panics.
func (a *LineArbiter) Release(line uint64, core int) {
	if own, held := a.owner[line]; !held || own != core {
		panic("txcache: LineArbiter.Release of a line the core does not own")
	}
	delete(a.owner, line)
	a.stats.Releases++
}

// Verdict returns core's verdict slot.
func (a *LineArbiter) Verdict(core int) ArbVerdict { return a.verdict[core] }

// ClearVerdict resets core's verdict slot after the core consumed it.
func (a *LineArbiter) ClearVerdict(core int) { a.verdict[core] = ArbVerdict{} }

// Owner reports the current owner of line, if any.
func (a *LineArbiter) Owner(line uint64) (int, bool) {
	c, ok := a.owner[line]
	return c, ok
}

// Held reports how many lines are currently owned.
func (a *LineArbiter) Held() int { return len(a.owner) }

// Stats returns the machine-wide arbitration counters.
func (a *LineArbiter) Stats() ArbStats { return a.stats }
