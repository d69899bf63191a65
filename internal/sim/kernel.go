// Package sim provides the discrete-event simulation kernel used by every
// timed component in pmemaccel: a cycle clock, a calendar wheel of
// per-cycle buckets for latency completions (Events), and a registry of
// per-cycle tickable components.
//
// The kernel advances one cycle at a time. Within a cycle it first fires
// every event scheduled for that cycle (in schedule order, so execution is
// deterministic), then the events queued with Late during them, then
// ticks every awake registered Tickable in registration order.
// Components therefore see a consistent "events happen, then state
// machines advance" discipline each cycle.
//
// A component puts itself to sleep (Kernel.Sleep) when its next Tick would
// be a no-op, and wakes itself when an entry point or a completion changes
// that; the kernel skips a sleeping component's Tick. When no component is
// awake the kernel jumps the clock to the next scheduled event instead of
// executing empty cycles — the event-driven mode that makes long
// memory-latency stalls cheap. A hold on the clock (Kernel.Hold) decides
// only how the jumped cycles are counted: without one they are skipped,
// with one they count as stepped, as if executed. The sleep contract is
// documented on Sleep and in DESIGN.md §10; it guarantees results are
// byte-identical with fast-forward on or off.
package sim

import "math/bits"

// Tickable is a component that advances its state machine once per cycle.
type Tickable interface {
	// Tick advances the component by one cycle. The current cycle number
	// is passed so components do not need a back-pointer to the kernel.
	Tick(cycle uint64)
}

// wheelSpan is the calendar wheel's size in cycles. An event due fewer
// than wheelSpan cycles out goes straight into its cycle's bucket; one
// due further out waits in the far heap until it comes within range.
const (
	wheelSpan = 1024
	wheelMask = wheelSpan - 1
)

// wheelNode is one pooled list node: an event and the node index + 1 of
// the next one in the same list (0 ends the list).
type wheelNode struct {
	ev   Event
	next uint32
}

// event is an Event in the far heap. seq breaks ties so that two far
// events due at the same cycle leave the heap in schedule order.
type event struct {
	cycle uint64
	seq   uint64
	ev    Event
}

// before orders events by (cycle, seq).
func (e event) before(o event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// eventHeap is a typed 4-ary min-heap keyed by (cycle, seq): the far
// list of events due wheelSpan or more cycles out. Events are stored by
// value, so it allocates only when its slice grows past its peak.
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

// Kernel is the simulation engine. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now uint64

	// The calendar wheel. Bucket b is a FIFO list, head[b] to tail[b]
	// (node index + 1, 0 = empty), of the events due at the one cycle
	// c ≡ b mod wheelSpan in now+1 … now+wheelSpan-1; occ has bit b set
	// while it is non-empty. The lists are threaded through the pooled
	// nodes, whose free list starts at free; inWheel counts the events
	// they hold.
	head, tail [wheelSpan]uint32
	occ        [wheelSpan / 64]uint64
	nodes      []wheelNode
	free       uint32
	inWheel    int
	// far holds the events due wheelSpan or more cycles out; seq numbers
	// them in schedule order.
	far eventHeap
	seq uint64

	tickables []Tickable
	// awakeBits has bit id%64 of word id/64 set while component id is
	// awake, so Step visits only awake components; awake counts them.
	awakeBits []uint64
	awake     int
	// holds counts the holds on the clock (Hold), taken by sleeping
	// components or on their behalf: while it is nonzero the cycles
	// RunUntil jumps count as stepped, not skipped.
	holds int

	// late holds the events Late queued, fired in order at the end of
	// the event phase. It starts on lateBuf, so a kernel that never has
	// more than one Late event pending allocates nothing for the list.
	late    []Event
	lateBuf [1]Event

	// ff lets components sleep and the clock fast-forward; skipped
	// counts the cycles the kernel jumped with no hold in place.
	ff      bool
	skipped uint64

	// steps counts the Steps executed and fired the events they fired:
	// the kernel's own work, which fast-forward lowers and no Result
	// reports.
	steps, fired uint64

	// pastSchedules counts ScheduleAt calls whose target cycle was
	// strictly in the past (coerced to now+1). A nonzero count flags a
	// causality bug: no component should ever compute a stale absolute
	// cycle, and the coercion would otherwise hide it as a quiet
	// reordering.
	pastSchedules uint64
}

// NewKernel returns a kernel at cycle 0 with no pending events and
// fast-forward enabled.
func NewKernel() *Kernel {
	k := &Kernel{ff: true}
	k.late = k.lateBuf[:0]
	return k
}

// Now reports the current cycle.
func (k *Kernel) Now() uint64 { return k.now }

// SetFastForward enables or disables component sleep and fast-forward.
// Disabled is the literal reference mode: every component ticks every
// cycle and Sleep never puts one to sleep. Results are byte-identical
// either way; disabling exists for equivalence tests and perf
// comparison. It must be called before the first Register.
func (k *Kernel) SetFastForward(on bool) {
	if len(k.tickables) > 0 {
		panic("sim: SetFastForward after Register")
	}
	k.ff = on
}

// Skipped reports how many cycles fast-forward jumped over so far with
// no hold in place: the cycles a run does not count as stepped.
func (k *Kernel) Skipped() uint64 { return k.skipped }

// Steps reports how many cycles the kernel executed (Step calls).
func (k *Kernel) Steps() uint64 { return k.steps }

// Fired reports how many events the kernel fired.
func (k *Kernel) Fired() uint64 { return k.fired }

// Awake reports how many registered components are awake.
func (k *Kernel) Awake() int { return k.awake }

// Holds reports how many holds on the clock are in place.
func (k *Kernel) Holds() int { return k.holds }

// PastSchedules reports how many ScheduleAt calls targeted a cycle
// strictly in the past and were coerced to the next cycle. Always zero
// for a well-behaved machine; the contended-machine tests and the
// benchmark assert it.
func (k *Kernel) PastSchedules() uint64 { return k.pastSchedules }

// Register adds a component, awake, to the per-cycle tick list and
// returns its id for Sleep. Components tick in registration order.
func (k *Kernel) Register(t Tickable) int {
	id := len(k.tickables)
	k.tickables = append(k.tickables, t)
	if id%64 == 0 {
		k.awakeBits = append(k.awakeBits, 0)
	}
	k.awakeBits[id/64] |= 1 << (id % 64)
	k.awake++
	return id
}

// Sleep puts component id to sleep when idle is true and wakes it
// otherwise, and reports whether it is now asleep (always false with
// fast-forward off). The kernel skips a sleeping component's Tick.
//
// idle may be true only when the component's next Tick would be a
// provable no-op at its current state: no state change, no event
// scheduled, no observer report — nothing except per-cycle accounting,
// which the component settles itself for the cycles it slept through.
// A component re-evaluates idle at the end of its own Tick and in every
// entry point or completion handler that changes the state the test
// reads, so the flag always equals the test. Time alone never ends idle:
// every way out of it is a kernel event or another component's call.
// When in doubt a component must stay awake: a false "awake" only costs
// speed, a false "asleep" breaks the byte-identical guarantee.
//
// Sleeping skips a component's Ticks, and with every component asleep the
// clock jumps. A sleeping component whose cycles must still count as
// stepped (it stands in for a component that would re-check its state
// each cycle) also takes a Hold for as long as it sleeps so.
func (k *Kernel) Sleep(id int, idle bool) bool {
	if !k.ff {
		return false
	}
	w, bit := &k.awakeBits[id/64], uint64(1)<<(id%64)
	if (*w&bit == 0) != idle {
		*w ^= bit
		if idle {
			k.awake--
		} else {
			k.awake++
		}
	}
	return idle
}

// Hold adds (on) or drops (off) one hold on the clock. While any hold is
// in place the cycles RunUntil jumps count as stepped rather than
// skipped, so a held sleeping component costs nothing per cycle yet
// Skipped reads exactly as it would were the component awake. A mechanism
// may hold on behalf of a core it stalls, for the cycles a per-cycle poll
// on the core's behalf would have stepped. A hold never makes the kernel
// execute a cycle: with no component awake the clock still jumps to the
// next event. Each caller pairs its own adds and drops. With fast-forward
// off the clock never jumps and Hold does nothing.
func (k *Kernel) Hold(on bool) {
	if !k.ff {
		return
	}
	if on {
		k.holds++
	} else {
		k.holds--
	}
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
	if cycle-k.now >= wheelSpan {
		k.seq++
		k.far.push(event{cycle: cycle, seq: k.seq, ev: ev})
		return
	}
	k.appendWheel(cycle&wheelMask, ev)
}

// Late queues ev to fire after every event of the current cycle and
// before the ticks, in Late call order. Events it schedules land in later
// cycles, as from any event. A handler uses it to act once on the state
// every event of a cycle left, without caring where in the cycle's
// schedule order it runs. Called outside the event phase (from a Tick, or
// between Steps), ev fires at the end of the next Step's event phase, and
// RunUntil does not jump over it.
func (k *Kernel) Late(ev Event) { k.late = append(k.late, ev) }

// appendWheel adds ev at the tail of bucket b, taking a node from the
// free list or growing the pool.
func (k *Kernel) appendWheel(b uint64, ev Event) {
	n := k.free
	if n != 0 {
		k.free = k.nodes[n-1].next
		k.nodes[n-1] = wheelNode{ev: ev}
	} else {
		k.nodes = append(k.nodes, wheelNode{ev: ev})
		n = uint32(len(k.nodes))
	}
	if t := k.tail[b]; t != 0 {
		k.nodes[t-1].next = n
	} else {
		k.head[b] = n
		k.occ[b/64] |= 1 << (b % 64)
	}
	k.tail[b] = n
	k.inWheel++
}

// Pending reports the number of not-yet-fired events.
func (k *Kernel) Pending() int { return k.inWheel + k.far.len() + len(k.late) }

// nextEvent reports the cycle of the earliest pending event. Every wheel
// event is due before every far one, so the far heap is consulted only
// when the wheel is empty.
func (k *Kernel) nextEvent() (uint64, bool) {
	if k.inWheel > 0 {
		// Scan the occupancy bitmap from bucket now+1, wrapping once.
		start := (k.now + 1) & wheelMask
		w := start / 64
		word := k.occ[w] &^ (1<<(start%64) - 1)
		for word == 0 {
			w = (w + 1) % uint64(len(k.occ))
			word = k.occ[w]
		}
		b := w*64 + uint64(bits.TrailingZeros64(word))
		return k.now + 1 + (b-start)&wheelMask, true
	}
	if k.far.len() > 0 {
		return k.far.head().cycle, true
	}
	return 0, false
}

// Step advances the clock by exactly one cycle: fire due events, then the
// Late events they queued, then tick every awake component in
// registration order. A component woken during the cycle ticks in it if
// its turn has not yet come. Step never fast-forwards; the skip logic
// lives in RunUntil so single-stepping callers keep cycle-exact control.
func (k *Kernel) Step() {
	k.now++
	k.steps++
	// Far events move into their bucket on the step they come within
	// range, before anything else can append to it: a far event for cycle
	// c was scheduled before any direct append to c's bucket, so list
	// order stays (cycle, seq) order.
	for k.far.len() > 0 && k.far.head().cycle <= k.now+wheelMask {
		e := k.far.pop()
		k.appendWheel(e.cycle&wheelMask, e.ev)
	}
	// Handlers schedule only into other buckets (now+1 … now+wheelSpan-1)
	// or the far heap, so the bucket is detached before its list fires.
	if b := k.now & wheelMask; k.head[b] != 0 {
		n := k.head[b]
		k.head[b], k.tail[b] = 0, 0
		k.occ[b/64] &^= 1 << (b % 64)
		for n != 0 {
			nd := &k.nodes[n-1]
			ev, next := nd.ev, nd.next
			*nd = wheelNode{next: k.free} // drop the handler reference
			k.free = n
			k.inWheel--
			k.fired++
			ev.Fire()
			n = next
		}
	}
	// A Late event may queue another, which fires in this pass too.
	for i := 0; i < len(k.late); i++ {
		ev := k.late[i]
		k.late[i] = Event{}
		k.fired++
		ev.Fire()
	}
	k.late = k.late[:0]
	for wi := range k.awakeBits {
		for w := k.awakeBits[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			k.tickables[wi*64+b].Tick(k.now)
			// A Tick may wake or sleep any component: re-read the word
			// and keep only the bits after this one.
			w = k.awakeBits[wi] & (^uint64(1) << b)
		}
	}
}

// RunUntil steps the kernel until the predicate returns true or the cycle
// limit is reached. It returns the cycle at which it stopped and whether
// the predicate was satisfied. When no component is awake it jumps the
// clock to one cycle before the next event (or before limit when no
// event is pending), so the following Step lands exactly on the event
// cycle with the usual events-then-ticks discipline. The jumped cycles
// count as skipped only when no hold is in place.
//
// Soundness: component state changes only inside Tick, a fired event or
// a call from one of those. Every sleeping component's Tick is a no-op by
// the Sleep contract and no event fires in the jumped range, so the
// machine state at the jump target is identical to stepping there. The
// predicate must read machine state, not the clock: it then answers in
// the jumped range as it did before the jump, so the run stops at the
// same cycle either way.
func (k *Kernel) RunUntil(done func() bool, limit uint64) (uint64, bool) {
	for !done() {
		if k.now >= limit {
			return k.now, false
		}
		if k.ff && k.awake == 0 && len(k.late) == 0 {
			target := limit
			if c, ok := k.nextEvent(); ok && c < target {
				target = c
			}
			if target > k.now+1 {
				n := target - k.now - 1
				k.now += n
				if k.holds == 0 {
					k.skipped += n
				}
			}
		}
		k.Step()
	}
	return k.now, true
}
