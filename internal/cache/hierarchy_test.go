package cache

import (
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
)

// fakeMemory is a scriptable Memory with fixed latencies.
type fakeMemory struct {
	k        *sim.Kernel
	readLat  uint64
	writeLat uint64
	reads    []uint64
	writes   []uint64
}

func (m *fakeMemory) Read(lineAddr uint64, done sim.Event) {
	m.reads = append(m.reads, lineAddr)
	m.k.Schedule(m.readLat, done)
}

func (m *fakeMemory) Write(lineAddr uint64, apply, onDurable sim.Event) {
	m.writes = append(m.writes, lineAddr)
	// Back-to-back schedules fire back to back: apply, then onDurable.
	m.k.Schedule(m.writeLat, apply)
	m.k.Schedule(m.writeLat, onDurable)
}

func smallConfig() Config {
	return Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 4,
	}
}

func newTestHierarchy(t *testing.T, hooks Hooks) (*sim.Kernel, *Hierarchy, *fakeMemory) {
	t.Helper()
	k := sim.NewKernel()
	mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
	h := New(k, smallConfig(), mem, hooks, 2, nil)
	return k, h, mem
}

func runAccess(t *testing.T, k *sim.Kernel, h *Hierarchy, core int, addr uint64, store bool) uint64 {
	t.Helper()
	start := k.Now()
	var end uint64
	done := false
	h.Access(core, addr, store, memaddr.IsPersistent(addr), 0, false, sim.Event{Fn: func(uint64) {
		end = k.Now()
		done = true
	}})
	if _, ok := k.RunUntil(func() bool { return done }, start+100000); !ok {
		t.Fatal("access did not complete")
	}
	return end - start
}

func TestColdLoadGoesToMemory(t *testing.T) {
	k, h, mem := newTestHierarchy(t, Hooks{})
	lat := runAccess(t, k, h, 0, memaddr.NVMBase, false)
	if len(mem.reads) != 1 {
		t.Fatalf("memory saw %d reads, want 1", len(mem.reads))
	}
	// 1 (L1) + 9 (L2) + queue(>=1) + 20 (LLC) + 130 (mem) ~ 161+.
	if lat < 160 || lat > 175 {
		t.Fatalf("cold load latency %d, want ~161", lat)
	}
}

func TestSecondLoadHitsL1(t *testing.T) {
	k, h, mem := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, false)
	lat := runAccess(t, k, h, 0, memaddr.NVMBase, false)
	if lat != 1 {
		t.Fatalf("warm load latency %d, want 1 (L1 hit)", lat)
	}
	if len(mem.reads) != 1 {
		t.Fatal("warm load went to memory")
	}
}

func TestLoadWithinSameLineHits(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, false)
	if lat := runAccess(t, k, h, 0, memaddr.NVMBase+56, false); lat != 1 {
		t.Fatalf("same-line load latency %d, want 1", lat)
	}
}

func TestStoreMarksLineDirtyAndPersistent(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, true)
	_ = k
	l := h.L1(0).Lookup(memaddr.NVMBase, false)
	if l == nil || !l.Dirty || !l.Persistent {
		t.Fatalf("L1 line after persistent store = %+v", l)
	}
}

func TestVolatileStoreNotPersistent(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.DRAMBase, true)
	_ = k
	l := h.L1(0).Lookup(memaddr.DRAMBase, false)
	if l == nil || !l.Dirty || l.Persistent {
		t.Fatalf("L1 line after volatile store = %+v", l)
	}
}

func TestMergedMissesSingleMemoryRead(t *testing.T) {
	k, h, mem := newTestHierarchy(t, Hooks{})
	doneCount := 0
	for i := 0; i < 3; i++ {
		h.Access(0, memaddr.NVMBase+uint64(i)*8, false, true, 0, false, sim.Event{Fn: func(uint64) { doneCount++ }})
	}
	k.RunUntil(func() bool { return doneCount == 3 }, 100000)
	if doneCount != 3 {
		t.Fatalf("%d/3 merged accesses completed", doneCount)
	}
	if len(mem.reads) != 1 {
		t.Fatalf("memory saw %d reads for one line, want 1 (MSHR merge)", len(mem.reads))
	}
}

func TestEvictionCascadesToMemory(t *testing.T) {
	k, h, mem := newTestHierarchy(t, Hooks{})
	// Dirty many distinct lines mapping beyond total capacity so dirty
	// victims eventually reach memory. Total capacity 21 KB = 336
	// lines; touch 1000 lines.
	done := 0
	for i := 0; i < 1000; i++ {
		h.Access(0, memaddr.DRAMBase+uint64(i)*64, true, false, 0, false, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 1000 && h.Pending() == 0 }, 5_000_000)
	if len(mem.writes) == 0 {
		t.Fatal("no dirty writebacks reached memory")
	}
	if h.Stats().MemWritebacks != uint64(len(mem.writes)) {
		t.Fatalf("stats MemWritebacks %d != memory writes %d", h.Stats().MemWritebacks, len(mem.writes))
	}
}

func TestDropHookDiscardsPersistentEvictions(t *testing.T) {
	k := sim.NewKernel()
	mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
	hooks := Hooks{
		DropLLCEviction: func(v Line) bool { return v.Persistent },
	}
	h := New(k, smallConfig(), mem, hooks, 1, nil)
	done := 0
	for i := 0; i < 1000; i++ {
		h.Access(0, memaddr.NVMBase+uint64(i)*64, true, true, 0, false, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 1000 && h.Pending() == 0 }, 5_000_000)
	if len(mem.writes) != 0 {
		t.Fatalf("%d persistent evictions reached memory despite drop hook", len(mem.writes))
	}
	if h.Stats().DroppedEvictions == 0 {
		t.Fatal("no evictions recorded as dropped")
	}
}

func TestSidePathProbeCalledOnPersistentLLCMiss(t *testing.T) {
	k := sim.NewKernel()
	mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
	probed := []uint64{}
	hooks := Hooks{
		SidePathProbe: func(lineAddr uint64) bool {
			probed = append(probed, lineAddr)
			return true
		},
	}
	h := New(k, smallConfig(), mem, hooks, 1, nil)
	done := false
	h.Access(0, memaddr.NVMBase, false, true, 0, false, sim.Event{Fn: func(uint64) { done = true }})
	k.RunUntil(func() bool { return done }, 100000)
	if len(probed) != 1 || probed[0] != memaddr.NVMBase {
		t.Fatalf("probes = %v, want one at NVMBase", probed)
	}
	s := h.Stats()
	if s.SidePathProbes != 1 || s.SidePathHits != 1 {
		t.Fatalf("probe stats = %d/%d, want 1/1", s.SidePathProbes, s.SidePathHits)
	}

	// Volatile misses never probe.
	done = false
	h.Access(0, memaddr.DRAMBase, false, false, 0, false, sim.Event{Fn: func(uint64) { done = true }})
	k.RunUntil(func() bool { return done }, 100000)
	if len(probed) != 1 {
		t.Fatal("volatile miss probed the side path")
	}
}

func TestFlushCleansAndWritesBack(t *testing.T) {
	k, h, mem := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, true)
	applied := false
	h2 := h // silence linters about shadow
	_ = h2
	flushed := false
	hooksApplied := &applied
	_ = hooksApplied
	h.Flush(0, memaddr.NVMBase, sim.Event{Fn: func(uint64) { flushed = true }})
	k.RunUntil(func() bool { return flushed }, 100000)
	if len(mem.writes) != 1 {
		t.Fatalf("flush produced %d memory writes, want 1", len(mem.writes))
	}
	if l := h.L1(0).Lookup(memaddr.NVMBase, false); l == nil || l.Dirty {
		t.Fatal("line not clean (or lost) after flush")
	}
}

func TestFlushAlwaysWritesEvenWhenClean(t *testing.T) {
	// clwb is modelled as an unconditional line write (its durable
	// effect comes from the live-image apply), so flushing a clean —
	// or still-filling — line still produces exactly one memory write.
	k, h, mem := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, false) // clean line
	var end uint64
	h.Flush(0, memaddr.NVMBase, sim.Event{Fn: func(uint64) { end = k.Now() }})
	k.RunUntil(func() bool { return end != 0 }, 100000)
	if len(mem.writes) != 1 {
		t.Fatalf("clean-line flush produced %d writes, want 1", len(mem.writes))
	}
	if h.Stats().CleanedLines != 0 {
		t.Fatal("clean flush counted a cleaned line")
	}
}

func TestFlushTxMovesDirtyLinesToLLCAndUnpins(t *testing.T) {
	k := sim.NewKernel()
	mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
	installs := 0
	hooks := Hooks{
		OnLLCDirtyInstall: func(lineAddr uint64) { installs++ },
	}
	h := New(k, smallConfig(), mem, hooks, 1, nil)
	// Store 3 lines under tx 7.
	done := 0
	for i := 0; i < 3; i++ {
		h.Access(0, memaddr.NVMBase+uint64(i)*64, true, true, 7, true, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 3 }, 100000)
	flushed := false
	h.FlushTx(0, 7, sim.Event{Fn: func(uint64) { flushed = true }})
	k.RunUntil(func() bool { return flushed }, 100000)
	if h.Stats().FlushedLines != 3 {
		t.Fatalf("FlushedLines = %d, want 3", h.Stats().FlushedLines)
	}
	if installs != 3 {
		t.Fatalf("OnLLCDirtyInstall ran %d times, want 3", installs)
	}
	dirtyInLLC := 0
	h.LLC().ForEach(func(l *Line) {
		if l.Dirty {
			dirtyInLLC++
			if l.Uncommitted || l.TxID != 0 {
				t.Fatalf("flushed line still pinned: %+v", *l)
			}
		}
	})
	if dirtyInLLC != 3 {
		t.Fatalf("%d dirty lines in LLC, want 3", dirtyInLLC)
	}
	// Private copies are clean now.
	for i := 0; i < 3; i++ {
		if l := h.L1(0).Lookup(memaddr.NVMBase+uint64(i)*64, false); l != nil && l.Dirty {
			t.Fatal("L1 copy still dirty after FlushTx")
		}
	}
}

func TestFlushTxWithNoDirtyLinesCompletes(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	flushed := false
	h.FlushTx(0, 99, sim.Event{Fn: func(uint64) { flushed = true }})
	k.RunUntil(func() bool { return flushed }, 1000)
	if !flushed {
		t.Fatal("empty FlushTx never completed")
	}
}

func TestPinnedLLCBypass(t *testing.T) {
	k := sim.NewKernel()
	mem := &fakeMemory{k: k, readLat: 10, writeLat: 10}
	hooks := Hooks{
		AllowLLCVictim: func(l *Line) bool { return !l.Uncommitted },
	}
	h := New(k, smallConfig(), mem, hooks, 1, nil)
	// Fill one LLC set (4 ways) with pinned lines. LLC sets = 16KB/64/4
	// = 64, so stride 64 lines maps to the same set.
	setStride := uint64(64 * 64)
	done := 0
	for i := 0; i < 4; i++ {
		h.Access(0, memaddr.NVMBase+uint64(i)*setStride, true, true, 5, true, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 4 }, 100000)
	// Push them to the LLC via commit-less eviction: flush tx moves them.
	moved := false
	h.FlushTx(0, 5, sim.Event{Fn: func(uint64) { moved = true }})
	k.RunUntil(func() bool { return moved }, 100000)
	// Re-pin them (FlushTx unpins; set manually for the bypass test).
	h.LLC().ForEach(func(l *Line) { l.Uncommitted = true })
	// A fifth same-set fill must bypass.
	done5 := false
	h.Access(0, memaddr.NVMBase+4*setStride, false, true, 0, false, sim.Event{Fn: func(uint64) { done5 = true }})
	k.RunUntil(func() bool { return done5 }, 100000)
	if h.Stats().LLCBypasses == 0 {
		t.Fatal("full-pinned set did not bypass")
	}
	if h.LLC().Lookup(memaddr.NVMBase+4*setStride, false) != nil {
		t.Fatal("bypassed line installed in LLC")
	}
}

func TestCrossCoreIsolation(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	runAccess(t, k, h, 0, memaddr.NVMBase, true)
	if h.L1(1).Lookup(memaddr.NVMBase, false) != nil {
		t.Fatal("core 1's L1 contains core 0's line")
	}
}

func TestLLCQueueWaitAccumulates(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	done := 0
	for i := 0; i < 50; i++ {
		h.Access(0, memaddr.NVMBase+uint64(i)*64*8, false, true, 0, false, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 50 }, 1_000_000)
	s := h.Stats()
	if s.LLCQueueServed == 0 {
		t.Fatal("no LLC queue activity recorded")
	}
	if s.LLCQueueWaitSum == 0 {
		t.Fatal("50 simultaneous misses produced zero queue wait")
	}
}

// Property: no dirty data is ever silently lost. After an arbitrary
// access stream, every line that received a store is either (a) dirty
// somewhere in the hierarchy, (b) written back to memory, or (c) was
// explicitly dropped by a drop hook (not installed here).
func TestQuickNoLostDirtyLines(t *testing.T) {
	f := func(ops []struct {
		Line  uint8
		Store bool
		Core  bool
	}) bool {
		k := sim.NewKernel()
		mem := &fakeMemory{k: k, readLat: 30, writeLat: 30}
		h := New(k, smallConfig(), mem, Hooks{}, 2, nil)
		stored := map[uint64]bool{}
		pending := 0
		for _, op := range ops {
			addr := memaddr.DRAMBase + uint64(op.Line)*64
			core := 0
			if op.Core {
				core = 1
			}
			if op.Store {
				stored[addr] = true
			}
			pending++
			h.Access(core, addr, op.Store, false, 0, false, sim.Event{Fn: func(uint64) { pending-- }})
		}
		k.RunUntil(func() bool { return pending == 0 && h.Pending() == 0 }, 10_000_000)
		if pending != 0 {
			return false
		}
		wrote := map[uint64]bool{}
		for _, w := range mem.writes {
			wrote[w] = true
		}
		for addr := range stored {
			if wrote[addr] {
				continue
			}
			dirtySomewhere := false
			for core := 0; core < 2; core++ {
				for _, c := range []*SetAssoc{h.L1(core), h.L2(core)} {
					if l := c.Lookup(addr, false); l != nil && l.Dirty {
						dirtySomewhere = true
					}
				}
			}
			if l := h.LLC().Lookup(addr, false); l != nil && l.Dirty {
				dirtySomewhere = true
			}
			if !dirtySomewhere {
				return false // dirty data vanished
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hierarchy always quiesces — no access stream can wedge
// the LLC queue or leak inflight entries.
func TestQuickHierarchyQuiesces(t *testing.T) {
	f := func(lines []uint16) bool {
		k := sim.NewKernel()
		mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
		h := New(k, smallConfig(), mem, Hooks{}, 1, nil)
		pending := 0
		for i, ln := range lines {
			addr := memaddr.NVMBase + uint64(ln%512)*64
			pending++
			h.Access(0, addr, i%3 == 0, true, 0, false, sim.Event{Fn: func(uint64) { pending-- }})
		}
		k.RunUntil(func() bool { return pending == 0 && h.Pending() == 0 }, 10_000_000)
		return pending == 0 && h.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFillFromMemoryIsNextL1Victim pins the hierarchy's effective
// replacement policy, LRU insertion: installL1 overwrites the way Insert
// stamped with a copy of the filled line, whose use stamp is 0 for a
// fill from memory, so the fresh line is its set's next victim until it
// is hit. Under true LRU the fourth fill below would evict a (last used
// before c was filled), not c. Changing the policy moves every figure.
func TestFillFromMemoryIsNextL1Victim(t *testing.T) {
	k, h, _ := newTestHierarchy(t, Hooks{})
	l1 := h.l1[0]
	stride := uint64(l1.Sets() * memaddr.LineSize) // same L1 set, 2 ways
	a, b, c, d := memaddr.NVMBase, memaddr.NVMBase+stride, memaddr.NVMBase+2*stride, memaddr.NVMBase+3*stride
	runAccess(t, k, h, 0, a, false)
	runAccess(t, k, h, 0, b, false)
	runAccess(t, k, h, 0, a, false) // hit: a is now the most recently used
	runAccess(t, k, h, 0, c, false) // evicts b, never hit
	if l1.Lookup(b, false) != nil || l1.Lookup(a, false) == nil {
		t.Fatal("filling c did not evict the unhit b")
	}
	runAccess(t, k, h, 0, d, false)
	if l1.Lookup(c, false) != nil || l1.Lookup(a, false) == nil || l1.Lookup(d, false) == nil {
		t.Fatalf("after filling d the set holds a:%v c:%v d:%v; want the fresh c evicted and a kept",
			l1.Lookup(a, false) != nil, l1.Lookup(c, false) != nil, l1.Lookup(d, false) != nil)
	}
}
