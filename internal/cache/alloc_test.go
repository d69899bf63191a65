package cache

import (
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
)

// stubMemory is an allocation-free Memory: fixed latencies and counters,
// no recorded history.
type stubMemory struct {
	k             *sim.Kernel
	reads, writes int
}

func (m *stubMemory) Read(lineAddr uint64, done sim.Event) {
	m.reads++
	m.k.Schedule(130, done)
}

func (m *stubMemory) Write(lineAddr uint64, apply, onDurable sim.Event) {
	m.writes++
	m.k.Schedule(152, apply)
	m.k.Schedule(152, onDurable)
}

// completions counts fired completions through a handler bound once, the
// way the core binds its own.
type completions struct {
	n    int
	done sim.Event
}

func newCompletions() *completions {
	c := &completions{}
	c.done = sim.Event{Fn: func(uint64) { c.n++ }}
	return c
}

// roundTrip issues one access on core 0 and runs the kernel until it
// completes, returning its latency.
func roundTrip(t *testing.T, k *sim.Kernel, h *Hierarchy, c *completions, addr uint64, store bool) uint64 {
	start, want := k.Now(), c.n+1
	h.Access(0, addr, store, memaddr.IsPersistent(addr), 0, false, c.done)
	if _, ok := k.RunUntil(func() bool { return c.n == want }, start+10_000); !ok {
		t.Fatalf("access to %#x did not complete", addr)
	}
	return k.Now() - start
}

// TestAccessAllocationFree pins the hierarchy's per-access paths at zero
// heap allocations once warm: an L1 hit, an L2 hit, a miss filled from
// memory, and a clwb write-back.
func TestAccessAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	mem := &stubMemory{k: k}
	h := New(k, smallConfig(), mem, Hooks{}, 1)
	c := newCompletions()
	base := memaddr.NVMBase
	// smallConfig's L1 has 8 sets of 2 ways: three lines 512 bytes apart
	// share one L1 set but fit in L2. The hierarchy is non-inclusive and
	// only dirty L1 victims move to L2, so cycling stores through the
	// three lines misses L1 and hits L2 every time.
	l2Lines := []uint64{base + 0x10000, base + 0x10200, base + 0x10400}
	roundTrip(t, k, h, c, base, false)
	for i := 0; i < 2; i++ {
		for _, a := range l2Lines {
			roundTrip(t, k, h, c, a, true)
		}
	}
	next := base + 0x100000 // fresh lines for the miss case
	cases := []struct {
		name   string
		run    func() uint64
		minLat uint64
		maxLat uint64
	}{
		{"L1 hit", func() uint64 { return roundTrip(t, k, h, c, base, false) }, 1, 1},
		{"L2 hit", func() uint64 {
			var lat uint64
			for _, a := range l2Lines {
				lat = roundTrip(t, k, h, c, a, true)
			}
			return lat
		}, 10, 10},
		{"miss and fill", func() uint64 {
			next += memaddr.LineSize
			return roundTrip(t, k, h, c, next, false)
		}, 150, 1000},
	}
	for _, tc := range cases {
		tc.run() // warm-up: slice and map growth happen here
		var lat uint64
		allocs := testing.AllocsPerRun(100, func() { lat = tc.run() })
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per round trip, want 0", tc.name, allocs)
		}
		if lat < tc.minLat || lat > tc.maxLat {
			t.Errorf("%s: latency %d, want [%d, %d] (wrong path measured)", tc.name, lat, tc.minLat, tc.maxLat)
		}
	}

	flush := func() {
		want := c.n + 1
		h.Flush(0, base, c.done)
		if _, ok := k.RunUntil(func() bool { return c.n == want }, k.Now()+10_000); !ok {
			t.Fatal("flush did not complete")
		}
	}
	flush()
	writes := mem.writes
	if allocs := testing.AllocsPerRun(100, flush); allocs != 0 {
		t.Errorf("flush: %.1f allocs per round trip, want 0", allocs)
	}
	if mem.writes != writes+101 {
		t.Errorf("flushes reached memory %d times, want 101", mem.writes-writes)
	}
}
