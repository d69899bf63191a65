package sim

import (
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
	k.Schedule(5, func() { fired = k.Now() })
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
	k.Schedule(0, func() { fired = k.Now() })
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
		k.Schedule(3, func() { order = append(order, i) })
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
	k.Schedule(7, func() { order = append(order, 7) })
	k.Schedule(2, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 5) })
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
	k.ScheduleAt(1, func() { fired = k.Now() })
	k.Step()
	if fired != 5 {
		t.Fatalf("past-scheduled event fired at %d, want 5 (next cycle)", fired)
	}
}

func TestEventMayScheduleFurtherEvents(t *testing.T) {
	k := NewKernel()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.Schedule(2, chain)
		}
	}
	k.Schedule(1, chain)
	if !k.Drain(100) {
		t.Fatal("Drain did not empty the queue")
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
	ticks []uint64
}

func (c *countingTicker) Tick(cycle uint64) { c.ticks = append(c.ticks, cycle) }

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
	k.Schedule(1, func() { order = append(order, "event") })
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
	k.Schedule(12, func() { done = true })
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

func TestPendingCountsUnfiredEvents(t *testing.T) {
	k := NewKernel()
	k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	k.Step()
	if k.Pending() != 1 {
		t.Fatalf("Pending after one step = %d, want 1", k.Pending())
	}
}

// Property: for any set of delays, events fire in non-decreasing cycle
// order and each at exactly now+delay (clamped to >= now+1).
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel()
		type firing struct{ want, got uint64 }
		var fired []firing
		for _, d := range delays {
			want := uint64(d)
			if want == 0 {
				want = 1
			}
			want += k.Now()
			w := want
			k.Schedule(uint64(d), func() {
				fired = append(fired, firing{want: w, got: k.Now()})
			})
		}
		k.Drain(1 << 20)
		if len(fired) != len(delays) {
			return false
		}
		prev := uint64(0)
		for _, f := range fired {
			if f.got != f.want || f.got < prev {
				return false
			}
			prev = f.got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// quiescentTicker is a Tickable that is idle unless it has pending work,
// and counts both real ticks and bulk-skipped cycles.
type quiescentTicker struct {
	busyUntil uint64 // busy while now < busyUntil
	k         *Kernel
	ticks     uint64
	skipped   uint64
}

func (q *quiescentTicker) Tick(cycle uint64)   { q.ticks++ }
func (q *quiescentTicker) Idle() bool          { return q.k.Now() >= q.busyUntil }
func (q *quiescentTicker) SkipCycles(n uint64) { q.skipped += n }

func TestFastForwardSkipsIdleGapToNextEvent(t *testing.T) {
	k := NewKernel()
	q := &quiescentTicker{k: k}
	k.Register(q)
	fired := uint64(0)
	k.Schedule(100, func() { fired = k.Now() })
	cycle, ok := k.RunUntil(func() bool { return fired != 0 }, 1000)
	if !ok || cycle != 100 || fired != 100 {
		t.Fatalf("RunUntil = (%d, %v), fired at %d; want event at 100", cycle, ok, fired)
	}
	if k.Skipped() != 99 {
		t.Fatalf("Skipped = %d, want 99 (cycles 1..99 jumped)", k.Skipped())
	}
	if q.skipped != 99 {
		t.Fatalf("SkipCycles total = %d, want 99", q.skipped)
	}
	// The event cycle itself must be a real Step (events then ticks).
	if q.ticks != 1 {
		t.Fatalf("real ticks = %d, want 1 (only the event cycle)", q.ticks)
	}
	if q.ticks+q.skipped != 100 {
		t.Fatalf("ticks+skipped = %d, want 100 (accounting must cover every cycle)", q.ticks+q.skipped)
	}
}

func TestFastForwardDisabledTicksEveryCycle(t *testing.T) {
	k := NewKernel()
	k.SetFastForward(false)
	q := &quiescentTicker{k: k}
	k.Register(q)
	fired := false
	k.Schedule(50, func() { fired = true })
	k.RunUntil(func() bool { return fired }, 1000)
	if k.Skipped() != 0 {
		t.Fatalf("Skipped = %d with fast-forward off, want 0", k.Skipped())
	}
	if q.ticks != 50 || q.skipped != 0 {
		t.Fatalf("ticks = %d skipped = %d, want 50 real ticks, 0 skipped", q.ticks, q.skipped)
	}
}

func TestBusyComponentBlocksFastForward(t *testing.T) {
	k := NewKernel()
	q := &quiescentTicker{k: k, busyUntil: 30}
	k.Register(q)
	fired := false
	k.Schedule(100, func() { fired = true })
	k.RunUntil(func() bool { return fired }, 1000)
	// Cycles 1..30 tick for real (idle only once now >= 30); the jump
	// covers the remaining gap up to the event at 100.
	if q.ticks+q.skipped != 100 {
		t.Fatalf("ticks+skipped = %d, want 100", q.ticks+q.skipped)
	}
	if q.ticks < 30 {
		t.Fatalf("real ticks = %d, want >= 30 (busy cycles must not be skipped)", q.ticks)
	}
	if k.Skipped() == 0 {
		t.Fatal("expected some cycles skipped after the component went idle")
	}
}

func TestFastForwardWithoutQuiescerNeverSkips(t *testing.T) {
	k := NewKernel()
	c := &countingTicker{}
	k.Register(c) // implements Tickable only
	fired := false
	k.Schedule(40, func() { fired = true })
	k.RunUntil(func() bool { return fired }, 1000)
	if k.Skipped() != 0 {
		t.Fatalf("Skipped = %d, want 0: a non-Quiescer component is always busy", k.Skipped())
	}
	if len(c.ticks) != 40 {
		t.Fatalf("ticked %d cycles, want 40", len(c.ticks))
	}
}

func TestFastForwardRespectsRunUntilLimit(t *testing.T) {
	k := NewKernel()
	q := &quiescentTicker{k: k}
	k.Register(q)
	// No events at all: with an idle machine RunUntil jumps to the limit.
	cycle, ok := k.RunUntil(func() bool { return false }, 75)
	if ok || cycle != 75 {
		t.Fatalf("RunUntil = (%d, %v), want (75, false)", cycle, ok)
	}
	if q.ticks+q.skipped != 75 {
		t.Fatalf("ticks+skipped = %d, want 75", q.ticks+q.skipped)
	}
}

func TestScheduleDoesNotAllocatePerEvent(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the heap so slice growth is out of the picture.
	for i := 0; i < 64; i++ {
		k.Schedule(uint64(i+1), fn)
	}
	for k.Pending() > 0 {
		k.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.Schedule(uint64(i+1), fn)
		}
		for k.Pending() > 0 {
			k.Step()
		}
	})
	if allocs > 0 {
		t.Fatalf("Schedule/pop allocated %.1f allocs per run, want 0 (typed heap must not box events)", allocs)
	}
}

func TestDebugIdleBlockersCountsFirstBusy(t *testing.T) {
	k := NewKernel()
	q := &quiescentTicker{k: k, busyUntil: 10}
	k.Register(q)
	counts := DebugIdleBlockers(k)
	k.Schedule(20, func() {})
	k.RunUntil(func() bool { return false }, 20)
	got := counts()
	if len(got) != 1 {
		t.Fatalf("counts for %d tickables, want 1", len(got))
	}
	// One blocked poll per cycle 0..9; the component reports idle from
	// cycle 10 and the kernel jumps the rest of the way to the limit.
	if got[0] != 10 {
		t.Fatalf("blocked %d polls, want 10", got[0])
	}
}

func TestPastSchedulesCountsOnlyStrictPast(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Step()
	}
	k.Schedule(0, func() {})         // documented next-cycle idiom: not counted
	k.ScheduleAt(k.Now(), func() {}) // current cycle: coerced, not counted
	if k.PastSchedules() != 0 {
		t.Fatalf("PastSchedules = %d after current-cycle schedules, want 0", k.PastSchedules())
	}
	k.ScheduleAt(2, func() {}) // strictly past: counted
	k.ScheduleAt(0, func() {})
	if k.PastSchedules() != 2 {
		t.Fatalf("PastSchedules = %d, want 2", k.PastSchedules())
	}
	// The coercion itself still fires the event next cycle.
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", k.Pending())
	}
}

// Regression: DebugIdleBlockers used a hardcoded 64-entry slice, so any
// machine with more tickables (a 64-core grid registers hundreds)
// sliced out of range.
func TestDebugIdleBlockersManyTickables(t *testing.T) {
	k := NewKernel()
	const n = 70
	var qs []*quiescentTicker
	for i := 0; i < n; i++ {
		q := &quiescentTicker{k: k, busyUntil: 5}
		k.Register(q)
		qs = append(qs, q)
	}
	counts := DebugIdleBlockers(k)
	k.Schedule(20, func() {})
	k.RunUntil(func() bool { return false }, 20)
	got := counts()
	if len(got) != n {
		t.Fatalf("counts for %d tickables, want %d", len(got), n)
	}
	var total uint64
	for _, c := range got {
		total += c
	}
	if total == 0 {
		t.Fatal("no blocked polls recorded while components were busy")
	}
}

// Registration after instrumentation must also be in range (the counts
// slice grows on demand).
func TestDebugIdleBlockersLateRegistration(t *testing.T) {
	k := NewKernel()
	counts := DebugIdleBlockers(k)
	for i := 0; i < 66; i++ {
		k.Register(&quiescentTicker{k: k, busyUntil: 3})
	}
	k.Schedule(10, func() {})
	k.RunUntil(func() bool { return false }, 10)
	if got := counts(); len(got) != 66 {
		t.Fatalf("counts for %d tickables, want 66", len(got))
	}
}
