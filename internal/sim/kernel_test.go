package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtCycleZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", k.Now())
	}
}

func TestScheduleFiresAtExactCycle(t *testing.T) {
	k := NewKernel()
	fired := uint64(0)
	k.Schedule(5, Event{Fn: func(uint64) { fired = k.Now() }})
	for i := 0; i < 10; i++ {
		k.Step()
	}
	if fired != 5 {
		t.Fatalf("event fired at cycle %d, want 5", fired)
	}
}

func TestZeroDelayFiresNextCycle(t *testing.T) {
	k := NewKernel()
	fired := uint64(0)
	k.Schedule(0, Event{Fn: func(uint64) { fired = k.Now() }})
	k.Step()
	if fired != 1 {
		t.Fatalf("zero-delay event fired at cycle %d, want 1", fired)
	}
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(3, Event{Fn: func(uint64) { order = append(order, i) }})
	}
	for i := 0; i < 5; i++ {
		k.Step()
	}
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO within a cycle)", i, v, i)
		}
	}
}

func TestEventsFireInCycleOrderRegardlessOfScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []uint64
	k.Schedule(7, Event{Fn: func(uint64) { order = append(order, 7) }})
	k.Schedule(2, Event{Fn: func(uint64) { order = append(order, 2) }})
	k.Schedule(5, Event{Fn: func(uint64) { order = append(order, 5) }})
	for i := 0; i < 10; i++ {
		k.Step()
	}
	want := []uint64{2, 5, 7}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleAtPastClampsToNextCycle(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Step()
	}
	fired := uint64(0)
	k.ScheduleAt(1, Event{Fn: func(uint64) { fired = k.Now() }})
	k.Step()
	if fired != 5 {
		t.Fatalf("past-scheduled event fired at %d, want 5 (next cycle)", fired)
	}
}

func TestEventMayScheduleFurtherEvents(t *testing.T) {
	k := NewKernel()
	count := 0
	var chain func(uint64)
	chain = func(uint64) {
		count++
		if count < 5 {
			k.Schedule(2, Event{Fn: chain})
		}
	}
	k.Schedule(1, Event{Fn: chain})
	if _, ok := k.RunUntil(func() bool { return k.Pending() == 0 }, 100); !ok {
		t.Fatal("the event queue did not empty")
	}
	if count != 5 {
		t.Fatalf("chain ran %d times, want 5", count)
	}
	// 1, 3, 5, 7, 9
	if k.Now() != 9 {
		t.Fatalf("drained at cycle %d, want 9", k.Now())
	}
}

type countingTicker struct {
	ticks  []uint64
	onTick func() // optional: runs inside every tick
}

func (c *countingTicker) Tick(cycle uint64) {
	c.ticks = append(c.ticks, cycle)
	if c.onTick != nil {
		c.onTick()
	}
}

func TestTickablesTickEveryCycleInRegistrationOrder(t *testing.T) {
	k := NewKernel()
	a, b := &countingTicker{}, &countingTicker{}
	k.Register(a)
	k.Register(b)
	for i := 0; i < 3; i++ {
		k.Step()
	}
	for _, c := range []*countingTicker{a, b} {
		if len(c.ticks) != 3 {
			t.Fatalf("ticked %d times, want 3", len(c.ticks))
		}
		for i, cyc := range c.ticks {
			if cyc != uint64(i+1) {
				t.Fatalf("tick %d at cycle %d, want %d", i, cyc, i+1)
			}
		}
	}
}

func TestEventsFireBeforeTicksWithinACycle(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Register(tickFunc(func(uint64) { order = append(order, "tick") }))
	k.Schedule(1, Event{Fn: func(uint64) { order = append(order, "event") }})
	k.Step()
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

type tickFunc func(uint64)

func (f tickFunc) Tick(cycle uint64) { f(cycle) }

func TestRunUntilStopsOnPredicate(t *testing.T) {
	k := NewKernel()
	done := false
	k.Schedule(12, Event{Fn: func(uint64) { done = true }})
	cycle, ok := k.RunUntil(func() bool { return done }, 1000)
	if !ok || cycle != 12 {
		t.Fatalf("RunUntil = (%d, %v), want (12, true)", cycle, ok)
	}
}

func TestRunUntilRespectsLimit(t *testing.T) {
	k := NewKernel()
	cycle, ok := k.RunUntil(func() bool { return false }, 50)
	if ok || cycle != 50 {
		t.Fatalf("RunUntil = (%d, %v), want (50, false)", cycle, ok)
	}
}

// quickDelay maps a generated value onto the kernel's delay classes:
// short (within one bucket word), within the wheel span, and far.
func quickDelay(x uint16) uint64 {
	switch x % 3 {
	case 0:
		return uint64(x % 64)
	case 1:
		return uint64(x % 2100)
	}
	return uint64(x)
}

// Property: for any set of delays, including ones scheduled by handlers
// as they fire, each event fires at exactly now+delay (clamped to >=
// now+1) and events fire in (cycle, schedule order) order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays, children []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel()
		type firing struct{ want, got, id uint64 }
		var fired []firing
		var ids, spawned uint64
		var schedule func(x uint16)
		schedule = func(x uint16) {
			d := quickDelay(x)
			want := k.Now() + max(d, 1)
			id := ids
			ids++
			k.Schedule(d, Event{Fn: func(uint64) {
				fired = append(fired, firing{want: want, got: k.Now(), id: id})
				if spawned < uint64(len(children)) {
					spawned++
					schedule(children[spawned-1])
				}
			}})
		}
		for _, x := range delays {
			schedule(x)
		}
		k.RunUntil(func() bool { return k.Pending() == 0 }, 1<<40) // a chain of far delays can run for millions of cycles
		if uint64(len(fired)) != ids {
			return false
		}
		for i, f := range fired {
			if f.got != f.want {
				return false
			}
			if i > 0 {
				p := fired[i-1]
				if f.got < p.got || f.got == p.got && f.id < p.id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Events due at one cycle fire in schedule order whether they waited in
// the far heap (scheduled wheelSpan or more cycles out, some while the
// clock fast-forwarded) or were appended straight to the bucket.
func TestFarAndWheelEventsShareCycleInScheduleOrder(t *testing.T) {
	const due = 3000
	k := NewKernel()
	var order []string
	at := func(name string) Event {
		return Event{Fn: func(uint64) { order = append(order, name) }}
	}
	k.ScheduleAt(due, at("far@0a"))
	k.ScheduleAt(due, at("far@0b"))
	// Each hook schedules the due-cycle event from the given cycle; the
	// last far delay is exactly wheelSpan, the first wheel one wheelSpan-1.
	hooks := []struct {
		cycle uint64
		name  string
	}{
		{1000, "far@1000"},
		{due - wheelSpan, "far@1976"},
		{due - wheelSpan + 1, "wheel@1977"},
		{2500, "wheel@2500"},
		{due - 1, "wheel@2999"},
	}
	for _, h := range hooks {
		k.ScheduleAt(h.cycle, Event{Fn: func(uint64) { k.ScheduleAt(due, at(h.name)) }})
	}
	k.RunUntil(func() bool { return k.Pending() == 0 }, 10000)
	want := []string{"far@0a", "far@0b", "far@1000", "far@1976", "wheel@1977", "wheel@2500", "wheel@2999"}
	if !slices.Equal(order, want) {
		t.Fatalf("cycle %d fired %v, want %v", due, order, want)
	}
	if k.Now() != due || k.Skipped() == 0 {
		t.Fatalf("drained at %d with %d skipped, want %d with the idle gaps fast-forwarded", k.Now(), k.Skipped(), due)
	}
}

// Delays at and beyond the wheel span fire on their exact cycle, whether
// the clock steps there or fast-forwards.
func TestWheelBoundaryDelaysFireOnTime(t *testing.T) {
	for _, d := range []uint64{wheelSpan - 1, wheelSpan, wheelSpan + 1, 3*wheelSpan + 7} {
		for _, stepped := range []bool{false, true} {
			k := NewKernel()
			for i := 0; i < 5; i++ {
				k.Step()
			}
			fired := uint64(0)
			k.Schedule(d, Event{Fn: func(uint64) { fired = k.Now() }})
			if stepped {
				for k.Pending() > 0 {
					k.Step()
				}
			} else {
				k.RunUntil(func() bool { return k.Pending() == 0 }, 1<<20)
			}
			if fired != 5+d {
				t.Errorf("delay %d (stepped %v) fired at %d, want %d", d, stepped, fired, 5+d)
			}
		}
	}
}

// With the wheel empty, fast-forward lands exactly on an event that sits
// only in the far heap.
func TestFastForwardLandsOnFarEvent(t *testing.T) {
	k := NewKernel()
	q := newQuiescentTicker(k, 0)
	k.Schedule(5000, Event{Fn: q.wake})
	if k.inWheel != 0 || k.far.len() != 1 {
		t.Fatalf("wheel holds %d and far heap %d events, want 0 and 1", k.inWheel, k.far.len())
	}
	cycle, ok := k.RunUntil(func() bool { return q.ticks > 0 }, 1<<20)
	if !ok || cycle != 5000 {
		t.Fatalf("RunUntil = (%d, %v); want the wake at 5000", cycle, ok)
	}
	if k.Skipped() != 4999 || q.ticks != 1 {
		t.Fatalf("Skipped = %d, ticks = %d; want 4999 jumped and 1 real tick", k.Skipped(), q.ticks)
	}
}

// Pending counts unfired events in both the wheel and the far heap.
func TestPendingCountsUnfiredEvents(t *testing.T) {
	k := NewKernel()
	nop := Event{Fn: func(uint64) {}}
	for _, d := range []uint64{1, 2, wheelSpan - 1, wheelSpan, 2 * wheelSpan} {
		k.Schedule(d, nop)
	}
	if k.Pending() != 5 || k.inWheel != 3 || k.far.len() != 2 {
		t.Fatalf("Pending = %d (wheel %d, far %d), want 5 (3, 2)", k.Pending(), k.inWheel, k.far.len())
	}
	k.Step()
	k.Step()
	// Cycles 1 and 2 fired; the wheelSpan event migrated at cycle 1.
	if k.Pending() != 3 || k.inWheel != 2 || k.far.len() != 1 {
		t.Fatalf("after 2 steps Pending = %d (wheel %d, far %d), want 3 (2, 1)", k.Pending(), k.inWheel, k.far.len())
	}
	k.RunUntil(func() bool { return k.Pending() == 0 }, 1<<20)
	if k.Now() != 2*wheelSpan {
		t.Fatalf("drained at %d, want %d", k.Now(), 2*wheelSpan)
	}
}

// quiescentTicker is a component with a count of pending work: each
// tick retires one unit, and it sleeps while none is left. Its wake
// handler adds a unit, the way a completion gives a component work.
type quiescentTicker struct {
	k     *Kernel
	id    int
	work  uint64
	ticks uint64
}

func newQuiescentTicker(k *Kernel, work uint64) *quiescentTicker {
	q := &quiescentTicker{k: k, work: work}
	q.id = k.Register(q)
	q.k.Sleep(q.id, q.work == 0)
	return q
}

func (q *quiescentTicker) Tick(uint64) {
	q.ticks++
	if q.work > 0 {
		q.work--
	}
	q.k.Sleep(q.id, q.work == 0)
}

// wake is the ticker's completion handler: one more unit of work.
func (q *quiescentTicker) wake(uint64) {
	q.work++
	q.k.Sleep(q.id, false)
}

func TestFastForwardSkipsIdleGapToNextEvent(t *testing.T) {
	k := NewKernel()
	q := newQuiescentTicker(k, 0)
	k.Schedule(100, Event{Fn: q.wake})
	cycle, ok := k.RunUntil(func() bool { return q.ticks > 0 }, 1000)
	if !ok || cycle != 100 {
		t.Fatalf("RunUntil = (%d, %v); want the wake at 100", cycle, ok)
	}
	if k.Skipped() != 99 {
		t.Fatalf("Skipped = %d, want 99 (cycles 1..99 jumped)", k.Skipped())
	}
	// The event cycle itself must be a real Step (events then ticks).
	if q.ticks != 1 {
		t.Fatalf("real ticks = %d, want 1 (only the event cycle)", q.ticks)
	}
}

func TestFastForwardDisabledTicksEveryCycle(t *testing.T) {
	k := NewKernel()
	k.SetFastForward(false)
	q := newQuiescentTicker(k, 0)
	k.Schedule(50, Event{Fn: q.wake})
	k.RunUntil(func() bool { return q.work > 0 || k.Now() >= 50 }, 1000)
	if k.Skipped() != 0 {
		t.Fatalf("Skipped = %d with fast-forward off, want 0", k.Skipped())
	}
	if q.ticks != 50 || k.Awake() != 1 {
		t.Fatalf("ticks = %d, awake = %d; want 50 real ticks and nothing asleep", q.ticks, k.Awake())
	}
}

func TestBusyComponentBlocksFastForward(t *testing.T) {
	k := NewKernel()
	q := newQuiescentTicker(k, 30)
	k.Schedule(100, Event{Fn: q.wake})
	k.RunUntil(func() bool { return k.Now() >= 100 }, 1000)
	// Cycles 1..30 tick for real (asleep once the work is done); the
	// jump covers the remaining gap up to the wake at 100, which ticks.
	if q.ticks != 31 {
		t.Fatalf("real ticks = %d, want 31 (busy cycles must not be skipped)", q.ticks)
	}
	if k.Skipped() != 69 {
		t.Fatalf("Skipped = %d, want 69 (cycles 31..99)", k.Skipped())
	}
}

// A hold decides only how the cycles the kernel jumps are counted. While
// the only component sleeps under a hold, RunUntil still jumps the idle
// stretch and executes one Step, on the next event's cycle, but the
// jumped cycles count as stepped; once the hold drops a jump counts as
// skipped. With fast-forward off the hold changes nothing.
func TestHeldIdleStretchIsJumpedNotSkipped(t *testing.T) {
	for _, ff := range []bool{true, false} {
		k := NewKernel()
		k.SetFastForward(ff)
		q := newQuiescentTicker(k, 0)
		k.Hold(true)
		var heldAt50 int
		var nowAt50, stepsAt50 uint64
		k.Schedule(50, Event{Fn: func(uint64) {
			heldAt50, nowAt50, stepsAt50 = k.Holds(), k.Now(), k.Steps()
			k.Hold(false)
		}})
		woken := false
		k.Schedule(100, Event{Fn: func(arg uint64) { woken = true; q.wake(arg) }})
		cycle, ok := k.RunUntil(func() bool { return woken }, 1000)
		if !ok || cycle != 100 {
			t.Fatalf("fast-forward %v: RunUntil = (%d, %v), want the wake at 100", ff, cycle, ok)
		}
		if ff {
			// Cycles 1..49 are jumped under the hold and 51..99 without
			// it: two Steps, and only the second jump counts as skipped.
			if heldAt50 != 1 || nowAt50 != 50 || stepsAt50 != 1 || k.Holds() != 0 {
				t.Fatalf("at the held event: holds %d, now %d, steps %d (holds %d after); want 1, 50, 1 (0)",
					heldAt50, nowAt50, stepsAt50, k.Holds())
			}
			if k.Steps() != 2 || k.Skipped() != 49 || q.ticks != 1 {
				t.Fatalf("steps = %d, skipped = %d, ticks = %d; want 2, 49 (cycles 51..99) and only the wake cycle ticked",
					k.Steps(), k.Skipped(), q.ticks)
			}
		} else if k.Holds() != 0 || heldAt50 != 0 || k.Skipped() != 0 || k.Steps() != 100 || q.ticks != 100 {
			t.Fatalf("fast-forward off: holds = %d (%d at cycle 50), skipped = %d, steps = %d, ticks = %d; want 0, 0, 0, 100, 100",
				k.Holds(), heldAt50, k.Skipped(), k.Steps(), q.ticks)
		}
	}
}

// A held stretch with no event due jumps to the limit in one Step and
// counts nothing as skipped.
func TestHeldStretchJumpsToLimit(t *testing.T) {
	k := NewKernel()
	q := newQuiescentTicker(k, 0)
	k.Hold(true)
	cycle, ok := k.RunUntil(func() bool { return false }, 75)
	if ok || cycle != 75 || k.Now() != 75 {
		t.Fatalf("RunUntil = (%d, %v), now %d; want (75, false) at 75", cycle, ok, k.Now())
	}
	if k.Steps() != 1 || k.Skipped() != 0 || q.ticks != 0 {
		t.Fatalf("steps = %d, skipped = %d, ticks = %d; want 1, 0, 0", k.Steps(), k.Skipped(), q.ticks)
	}
}

// Late events fire after every event of their cycle, in Late call order,
// and before the ticks; a Late event may queue another, and the events
// they schedule land in later cycles. Fired counts them with the rest.
func TestLateEventsFireAfterEventsBeforeTicks(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) Event {
		return Event{Fn: func(uint64) { order = append(order, fmt.Sprintf("%s@%d", s, k.Now())) }}
	}
	k.Register(tickFunc(func(c uint64) {
		if c <= 2 {
			order = append(order, fmt.Sprintf("tick@%d", c))
		}
	}))
	k.Schedule(1, Event{Fn: func(uint64) {
		k.Late(Event{Fn: func(uint64) {
			order = append(order, fmt.Sprintf("late1@%d", k.Now()))
			k.Schedule(0, note("scheduled"))
			k.Late(note("late3"))
		}})
		k.Late(note("late2"))
	}})
	k.Schedule(1, note("event"))
	k.Step()
	k.Step()
	want := "[event@1 late1@1 late2@1 late3@1 tick@1 scheduled@2 tick@2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if k.Fired() != 6 || k.Pending() != 0 {
		t.Fatalf("fired %d, pending %d; want 6, 0", k.Fired(), k.Pending())
	}
}

// A Late event queued between Steps is pending: it fires in the next
// Step's event phase, and RunUntil does not jump over it.
func TestLateBetweenStepsFiresInNextStep(t *testing.T) {
	k := NewKernel()
	newQuiescentTicker(k, 0)
	firedAt := uint64(0)
	k.Schedule(500, Event{})
	k.Late(Event{Fn: func(uint64) { firedAt = k.Now() }})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.RunUntil(func() bool { return firedAt != 0 }, 1000)
	if firedAt != 1 || k.Skipped() != 0 {
		t.Fatalf("late event fired at %d with %d skipped, want 1 and 0", firedAt, k.Skipped())
	}
}

// A component that never calls Sleep stays awake, so it ticks every
// cycle and the kernel never jumps.
func TestFastForwardWithoutQuiescerNeverSkips(t *testing.T) {
	k := NewKernel()
	c := &countingTicker{}
	k.Register(c)
	fired := false
	k.Schedule(40, Event{Fn: func(uint64) { fired = true }})
	k.RunUntil(func() bool { return fired }, 1000)
	if k.Skipped() != 0 {
		t.Fatalf("Skipped = %d, want 0: a component that never sleeps is always awake", k.Skipped())
	}
	if len(c.ticks) != 40 {
		t.Fatalf("ticked %d cycles, want 40", len(c.ticks))
	}
}

func TestFastForwardRespectsRunUntilLimit(t *testing.T) {
	k := NewKernel()
	q := newQuiescentTicker(k, 0)
	// No events at all: with an idle machine RunUntil jumps to the limit.
	cycle, ok := k.RunUntil(func() bool { return false }, 75)
	if ok || cycle != 75 {
		t.Fatalf("RunUntil = (%d, %v), want (75, false)", cycle, ok)
	}
	if q.ticks != 0 || k.Skipped() != 74 {
		t.Fatalf("ticks = %d, skipped = %d; want the jump to 74, then a step to 75 that leaves the sleeper alone", q.ticks, k.Skipped())
	}
}

// A component woken by another's Tick in the same cycle ticks in that
// cycle when its turn comes after the waker's, and from the next cycle
// when it came before; a sleeping one is not ticked.
func TestWakeTicksInRegistrationOrder(t *testing.T) {
	k := NewKernel()
	before := newQuiescentTicker(k, 0)
	waker := &countingTicker{}
	k.Register(waker)
	after := newQuiescentTicker(k, 0)
	k.Step()
	if before.ticks != 0 || after.ticks != 0 {
		t.Fatalf("sleeping components ticked: before %d, after %d", before.ticks, after.ticks)
	}
	// Wake both from inside the waker's tick at cycle 2.
	k.Schedule(1, Event{Fn: func(uint64) {
		waker.onTick = func() { before.wake(0); after.wake(0) }
	}})
	k.Step()
	if before.ticks != 0 || after.ticks != 1 {
		t.Fatalf("cycle 2 ticks: before %d, after %d; want 0 and 1", before.ticks, after.ticks)
	}
	waker.onTick = nil
	k.Step()
	if before.ticks != 1 || after.ticks != 1 {
		t.Fatalf("cycle 3 ticks: before %d, after %d; want 1 and 1", before.ticks, after.ticks)
	}
	if k.Awake() != 1 {
		t.Fatalf("Awake = %d, want 1 (only the waker)", k.Awake())
	}
}

// logTicker appends its id to a shared log on every Tick, then runs
// onTick.
type logTicker struct {
	id     int
	log    *[]int
	onTick func()
}

func (l *logTicker) Tick(uint64) {
	*l.log = append(*l.log, l.id)
	if l.onTick != nil {
		l.onTick()
	}
}

// The awake set spans several 64-bit words: Step visits awake components
// in registration order across word boundaries, a component woken
// mid-cycle ticks in that cycle only if its turn is still to come (in
// its own word or a later one), and a Sleep called from inside a Tick
// takes effect before the sleeper's turn.
func TestAwakeBitmapAcrossWords(t *testing.T) {
	const n = 130
	k := NewKernel()
	var log []int
	ts := make([]*logTicker, n)
	for i := range ts {
		ts[i] = &logTicker{id: i, log: &log}
		if id := k.Register(ts[i]); id != i {
			t.Fatalf("Register returned id %d, want %d", id, i)
		}
	}
	step := func(want ...int) {
		t.Helper()
		log = nil
		k.Step()
		if !slices.Equal(log, want) {
			t.Fatalf("cycle %d ticked %v, want %v", k.Now(), log, want)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	step(all...)

	for i := 0; i < n; i++ {
		k.Sleep(i, i != 63 && i != 64 && i != 70)
	}
	if k.Awake() != 3 {
		t.Fatalf("Awake = %d, want 3", k.Awake())
	}
	// 63, the last bit of word 0, sleeps itself and 64, the first bit of
	// word 1, before 64's turn. 70 wakes an earlier word (10), an earlier
	// bit of its own word (65), a later bit of its own word (71) and the
	// last bit of a later word (127), which wakes the first bit of the
	// word after it (128).
	ts[63].onTick = func() { k.Sleep(63, true); k.Sleep(64, true) }
	ts[70].onTick = func() {
		for _, id := range []int{10, 65, 71, 127} {
			k.Sleep(id, false)
		}
	}
	ts[127].onTick = func() { k.Sleep(128, false) }
	step(63, 70, 71, 127, 128)

	ts[63].onTick, ts[70].onTick, ts[127].onTick = nil, nil, nil
	step(10, 65, 70, 71, 127, 128)
	if k.Awake() != 6 {
		t.Fatalf("Awake = %d, want 6", k.Awake())
	}
}

// argSum is a component whose completion handler is bound once, the way
// simulator components bind theirs at construction.
type argSum struct {
	sum  uint64
	done func(uint64)
}

func (a *argSum) onDone(arg uint64) { a.sum += arg }

func TestScheduleDoesNotAllocatePerEvent(t *testing.T) {
	k := NewKernel()
	a := &argSum{}
	a.done = a.onDone
	// Warm the heap so slice growth is out of the picture.
	for i := 0; i < 64; i++ {
		k.Schedule(uint64(i+1), Event{Fn: a.done, Arg: 1})
	}
	for k.Pending() > 0 {
		k.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.Schedule(uint64(i+1), Event{Fn: a.done, Arg: uint64(i)})
		}
		for k.Pending() > 0 {
			k.Step()
		}
	})
	if allocs > 0 {
		t.Fatalf("Schedule/fire allocated %.1f allocs per run, want 0 (a bound Event must not allocate)", allocs)
	}
	// 64 warm-up events of 1, then 101 runs of 0+1+...+31.
	if want := uint64(64 + 101*31*32/2); a.sum != want {
		t.Fatalf("handler saw arg sum %d, want %d", a.sum, want)
	}

	// Far delays pass through the far heap and migrate into the wheel:
	// once both have grown, that path allocates nothing either.
	far := func() {
		for i := 0; i < 32; i++ {
			k.Schedule(wheelSpan+uint64(i*97), Event{Fn: a.done, Arg: 1})
		}
		k.RunUntil(func() bool { return k.Pending() == 0 }, k.Now()+1<<20)
	}
	far()
	if allocs := testing.AllocsPerRun(20, far); allocs > 0 {
		t.Fatalf("far-delay Schedule/fire allocated %.1f allocs per run, want 0", allocs)
	}
}

func TestPastSchedulesCountsOnlyStrictPast(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Step()
	}
	k.Schedule(0, Event{Fn: func(uint64) {}})         // documented next-cycle idiom: not counted
	k.ScheduleAt(k.Now(), Event{Fn: func(uint64) {}}) // current cycle: coerced, not counted
	if k.PastSchedules() != 0 {
		t.Fatalf("PastSchedules = %d after current-cycle schedules, want 0", k.PastSchedules())
	}
	k.ScheduleAt(2, Event{Fn: func(uint64) {}}) // strictly past: counted
	k.ScheduleAt(0, Event{Fn: func(uint64) {}})
	if k.PastSchedules() != 2 {
		t.Fatalf("PastSchedules = %d, want 2", k.PastSchedules())
	}
	// The coercion itself still fires the event next cycle.
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", k.Pending())
	}
}

// BenchmarkKernelEvents measures the event path per fired event on the
// simulator's measured mix: about 8 events pending, about 90 % of delays
// at most 64 cycles and the rest up to 519 (the abort backoff). Each
// handler reschedules itself, and the idle gaps between events are
// fast-forwarded as in a run whose components all sleep.
func BenchmarkKernelEvents(b *testing.B) {
	const pending = 8
	rng := NewRNG(1)
	delays := make([]uint64, 4096)
	for i := range delays {
		if rng.Bool(0.9) {
			delays[i] = 1 + rng.Uint64n(64)
		} else {
			delays[i] = 65 + rng.Uint64n(519-64)
		}
	}
	k := NewKernel()
	fired := 0
	var fn func(uint64)
	fn = func(arg uint64) {
		fired++
		k.Schedule(delays[arg%4096], Event{Fn: fn, Arg: arg + pending})
	}
	for i := uint64(0); i < pending; i++ {
		k.Schedule(delays[i], Event{Fn: fn, Arg: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(func() bool { return fired >= b.N }, 1<<62)
}

type nopTicker struct{}

func (nopTicker) Tick(uint64) {}

// BenchmarkStepSparse measures one Step of a 16-core TCache machine's
// shape: 35 registered components of which 6 are awake, no events.
func BenchmarkStepSparse(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 35; i++ {
		k.Sleep(k.Register(nopTicker{}), i%6 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
