// Package sim provides the discrete-event simulation kernel used by every
// timed component in pmemaccel: a cycle clock, an event heap for latency
// completions (Events), and a registry of per-cycle tickable components.
//
// The kernel advances one cycle at a time. Within a cycle it first fires
// every event scheduled for that cycle (in schedule order, so execution is
// deterministic), then ticks every registered Tickable in registration
// order. Components therefore see a consistent "events happen, then state
// machines advance" discipline each cycle.
//
// When every registered component also implements Quiescer and reports
// idle, the kernel fast-forwards the clock to the next scheduled event
// instead of spinning no-op tick sweeps — the event-driven mode that makes
// long memory-latency stalls cheap. The quiescence contract (when a
// component may legally report idle) is documented on Quiescer and in
// DESIGN.md §10; the contract guarantees results are byte-identical with
// fast-forward on or off.
package sim

// Tickable is a component that advances its state machine once per cycle.
type Tickable interface {
	// Tick advances the component by one cycle. The current cycle number
	// is passed so components do not need a back-pointer to the kernel.
	Tick(cycle uint64)
}

// Quiescer is an optional interface a Tickable may implement to let the
// kernel fast-forward across cycles where the whole machine is provably
// quiet.
//
// Idle must return true only when the component's next Tick would be a
// no-op at its current state: no state change, no event scheduled, no
// probe emission — nothing observable except per-cycle accounting, which
// the kernel applies in bulk through CycleSkipper. Component state may
// only change between ticks through kernel events, and the kernel never
// skips past an event, so a component that is idle now is idle for every
// skipped cycle. When in doubt a component must report busy: a false
// "busy" only costs speed, a false "idle" breaks the byte-identical
// guarantee.
type Quiescer interface {
	Idle() bool
}

// CycleSkipper is an optional companion to Quiescer for components whose
// idle Tick still accrues per-cycle accounting (a stalled core charging
// its stall bucket). SkipCycles(n) must apply exactly the accounting n
// consecutive idle Ticks would have, and nothing else.
type CycleSkipper interface {
	SkipCycles(n uint64)
}

// event is an Event scheduled for a future cycle. seq breaks ties so that
// two events scheduled for the same cycle fire in schedule order.
type event struct {
	cycle uint64
	seq   uint64
	ev    Event
}

// before orders events by (cycle, seq) — the same total order the old
// container/heap implementation used, so firing order (and therefore
// every simulation result) is unchanged.
func (e event) before(o event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// eventHeap is a typed 4-ary min-heap keyed by (cycle, seq). Unlike
// container/heap it never boxes events through interface{}, so Schedule
// does not allocate per event (only amortized slice growth), and the
// shallower tree halves the sift-down depth on the pop-heavy kernel
// workload. Events are stored by value (a bound handler plus one state
// word), so with allocation-free Events the heap allocates nothing once
// its slice has grown. Because (cycle, seq) is a total order, pop order
// is independent of heap shape.
type eventHeap struct {
	a []event
}

const heapArity = 4

func (h *eventHeap) len() int { return len(h.a) }

// head returns the minimum event without removing it. Caller guarantees
// len() > 0.
func (h *eventHeap) head() event { return h.a[0] }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.a[i].before(h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	root := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // drop the handler reference so a cold-path closure can be collected
	h.a = h.a[:n]
	i := 0
	for {
		min := i
		first := heapArity*i + 1
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h.a[c].before(h.a[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
	return root
}

// tickEntry caches the optional-interface assertions done once at
// Register time, keeping the per-cycle and per-skip loops free of type
// switches.
type tickEntry struct {
	t Tickable
	q Quiescer     // nil: component never reports idle (always busy)
	s CycleSkipper // nil: no bulk accounting on skip
}

// Kernel is the simulation engine. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now       uint64
	seq       uint64
	events    eventHeap
	tickables []tickEntry

	// ff enables quiescence fast-forward; skipped counts the cycles the
	// kernel jumped instead of stepping.
	ff      bool
	skipped uint64

	// pastSchedules counts ScheduleAt calls whose target cycle was
	// strictly in the past (coerced to now+1). A nonzero count flags a
	// causality bug: no component should ever compute a stale absolute
	// cycle, and the coercion would otherwise hide it as a quiet
	// reordering.
	pastSchedules uint64

	debugBlocked func(int)
}

// NewKernel returns a kernel at cycle 0 with no pending events and
// quiescence fast-forward enabled.
func NewKernel() *Kernel {
	return &Kernel{ff: true}
}

// Now reports the current cycle.
func (k *Kernel) Now() uint64 { return k.now }

// SetFastForward enables or disables quiescence fast-forward. Results
// are byte-identical either way; disabling exists for equivalence tests
// and perf comparison.
func (k *Kernel) SetFastForward(on bool) { k.ff = on }

// Skipped reports how many cycles fast-forward jumped over so far.
func (k *Kernel) Skipped() uint64 { return k.skipped }

// PastSchedules reports how many ScheduleAt calls targeted a cycle
// strictly in the past and were coerced to the next cycle. Always zero
// for a well-behaved machine; the contended-machine tests and the
// benchmark assert it.
func (k *Kernel) PastSchedules() uint64 { return k.pastSchedules }

// Register adds a component to the per-cycle tick list. Components tick in
// registration order. Components implementing Quiescer (and optionally
// CycleSkipper) participate in quiescence fast-forward.
func (k *Kernel) Register(t Tickable) {
	e := tickEntry{t: t}
	e.q, _ = t.(Quiescer)
	e.s, _ = t.(CycleSkipper)
	k.tickables = append(k.tickables, e)
}

// Schedule arranges for ev to fire delay cycles from now. A delay of 0
// fires ev at the start of the next cycle (events for the current cycle
// have already fired), keeping same-cycle feedback loops impossible.
func (k *Kernel) Schedule(delay uint64, ev Event) {
	k.ScheduleAt(k.now+delay, ev)
}

// ScheduleAt arranges for ev to fire at the given absolute cycle. Scheduling
// in the past (or for the current cycle) is adjusted to the next cycle.
// Current-cycle targets are the documented Schedule(0) idiom; strictly
// past targets additionally increment the PastSchedules counter, since
// they indicate a caller computed a stale cycle.
func (k *Kernel) ScheduleAt(cycle uint64, ev Event) {
	if cycle <= k.now {
		if cycle < k.now {
			k.pastSchedules++
		}
		cycle = k.now + 1
	}
	k.seq++
	k.events.push(event{cycle: cycle, seq: k.seq, ev: ev})
}

// Pending reports the number of not-yet-fired events.
func (k *Kernel) Pending() int { return k.events.len() }

// Step advances the clock by exactly one cycle: fire due events, then
// tick every registered component. Step never fast-forwards; the skip
// logic lives in RunUntil so single-stepping callers keep cycle-exact
// control.
func (k *Kernel) Step() {
	k.now++
	for k.events.len() > 0 && k.events.head().cycle <= k.now {
		k.events.pop().ev.Fire()
	}
	for i := range k.tickables {
		k.tickables[i].t.Tick(k.now)
	}
}

// maybeSkip fast-forwards the clock to one cycle before the next event
// (or before limit when no event is pending) when every registered
// component is provably idle. The following Step then lands exactly on
// the event cycle with the usual events-then-ticks discipline.
//
// Soundness: component state changes only inside Tick or a fired event.
// Every skipped Tick is a no-op by the Quiescer contract and no event
// fires in the skipped range, so the machine state at the skip target is
// identical to stepping there — except per-cycle accounting, which
// SkipCycles applies in bulk for exactly the skipped cycle count.
func (k *Kernel) maybeSkip(limit uint64) {
	if !k.ff {
		return
	}
	target := limit
	if k.events.len() > 0 && k.events.head().cycle < target {
		target = k.events.head().cycle
	}
	if target <= k.now+1 {
		return
	}
	// Poll idleness in reverse registration order: the components
	// registered last (cores) answer cheapest and are busiest, so they
	// short-circuit the poll before the controllers' window scans run.
	// Polling order is unobservable — Idle must not mutate state.
	for i := len(k.tickables) - 1; i >= 0; i-- {
		if k.tickables[i].q == nil || !k.tickables[i].q.Idle() {
			if k.debugBlocked != nil {
				k.debugBlocked(i)
			}
			return
		}
	}
	n := target - k.now - 1
	for i := range k.tickables {
		if k.tickables[i].s != nil {
			k.tickables[i].s.SkipCycles(n)
		}
	}
	k.now += n
	k.skipped += n
}

// RunUntil steps the kernel until the predicate returns true or the cycle
// limit is reached. It returns the cycle at which it stopped and whether
// the predicate was satisfied. When the machine is quiescent it
// fast-forwards between events instead of stepping every cycle; the
// predicate is evaluated at the same component states either way (state
// cannot change across provably idle cycles).
func (k *Kernel) RunUntil(done func() bool, limit uint64) (uint64, bool) {
	for !done() {
		if k.now >= limit {
			return k.now, false
		}
		k.maybeSkip(limit)
		k.Step()
	}
	return k.now, true
}

// Drain steps the kernel until no events remain, up to limit cycles.
// Tickables still tick each stepped cycle. It reports whether the event
// queue emptied.
func (k *Kernel) Drain(limit uint64) bool {
	_, ok := k.RunUntil(func() bool { return k.events.len() == 0 }, limit)
	return ok
}

// DebugIdleBlockers instruments the kernel (test use): returns a closure
// reporting, per tickable index, how many idle polls that component was
// the first to answer "busy" to. Components registered after the call
// are accounted too: the counts slice grows on demand, so machines with
// any number of tickables (a 64-core grid registers well over 64) are
// safe.
func DebugIdleBlockers(k *Kernel) func() []uint64 {
	counts := make([]uint64, len(k.tickables))
	grow := func(n int) {
		for len(counts) < n {
			counts = append(counts, 0)
		}
	}
	k.debugBlocked = func(i int) {
		grow(i + 1)
		counts[i]++
	}
	return func() []uint64 {
		grow(len(k.tickables))
		return counts[:len(k.tickables)]
	}
}
