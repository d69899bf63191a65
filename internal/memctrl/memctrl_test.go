package memctrl

import (
	"fmt"
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
)

func testConfig() Config {
	return Config{
		Name: "NVM", Banks: 4, RowBytes: 1024,
		ReadHit: 30, ReadMiss: 130, WriteHit: 60, WriteMiss: 152,
		ReadWindow: 8, WriteWindow: 64, DrainHigh: 51, DrainLow: 16,
	}
}

func TestReadCompletesWithMissLatency(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	done := uint64(0)
	c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { done = k.Now() }})
	k.RunUntil(func() bool { return done != 0 }, 10000)
	// Issue happens on the first tick (cycle 1), completion 130 later.
	if done != 1+130 {
		t.Fatalf("read completed at %d, want 131 (cold row miss)", done)
	}
	if c.Stats().Reads != 1 || c.Stats().RowMisses != 1 {
		t.Fatalf("stats = %+v, want 1 read, 1 miss", c.Stats())
	}
}

func TestRowHitIsFaster(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	var t1, t2 uint64
	c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { t1 = k.Now() }})
	c.Read(memaddr.NVMBase+64, sim.Event{Fn: func(uint64) { t2 = k.Now() }}) // same row, same bank? bank = line%4
	// line 0 -> bank 0; line 1 -> bank 1: different banks. Use +64*4 for
	// same bank, same row (row = line/banks/...).
	k.RunUntil(func() bool { return t1 != 0 && t2 != 0 }, 10000)
	if c.Stats().RowHits == 0 {
		// bank interleave may have split them; force same bank:
		k2 := sim.NewKernel()
		c2 := New(k2, testConfig())
		var u1, u2 uint64
		c2.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { u1 = k2.Now() }})
		c2.Read(memaddr.NVMBase+64*4, sim.Event{Fn: func(uint64) { u2 = k2.Now() }})
		k2.RunUntil(func() bool { return u1 != 0 && u2 != 0 }, 10000)
		if c2.Stats().RowHits != 1 {
			t.Fatalf("same-bank same-row second read not a row hit: %+v", c2.Stats())
		}
		if u2-u1 > 130 {
			t.Fatalf("row hit took %d cycles after first, want ~30", u2-u1)
		}
	}
}

func TestBankParallelism(t *testing.T) {
	// Two reads to different banks overlap; two to the same bank
	// serialize.
	k := sim.NewKernel()
	c := New(k, testConfig())
	var a, b uint64
	c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { a = k.Now() }})    // bank 0
	c.Read(memaddr.NVMBase+64, sim.Event{Fn: func(uint64) { b = k.Now() }}) // bank 1
	k.RunUntil(func() bool { return a != 0 && b != 0 }, 10000)
	if b != a+1 { // one-cycle command offset only
		t.Fatalf("different-bank reads done at %d and %d, want 1 cycle apart", a, b)
	}

	k2 := sim.NewKernel()
	c2 := New(k2, testConfig())
	var x, y uint64
	c2.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { x = k2.Now() }})
	c2.Read(memaddr.NVMBase+64*4, sim.Event{Fn: func(uint64) { y = k2.Now() }}) // same bank
	k2.RunUntil(func() bool { return x != 0 && y != 0 }, 10000)
	if y-x < 30 {
		t.Fatalf("same-bank reads done %d apart, want >= row-hit latency", y-x)
	}
}

func TestWriteRunsApplyThenDone(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	var order []string
	c.Write(memaddr.NVMBase, sim.Event{Fn: func(uint64) { order = append(order, "apply") }}, sim.Event{Fn: func(uint64) { order = append(order, "done") }})
	k.RunUntil(func() bool { return len(order) == 2 }, 10000)
	if order[0] != "apply" || order[1] != "done" {
		t.Fatalf("order = %v, want [apply done]", order)
	}
	if c.Stats().Writes != 1 {
		t.Fatalf("writes = %d, want 1", c.Stats().Writes)
	}
}

func TestReadFirstPolicy(t *testing.T) {
	// With both queues populated (below drain threshold), reads issue
	// before writes.
	k := sim.NewKernel()
	c := New(k, testConfig())
	var readDone, writeDone uint64
	c.Write(memaddr.NVMBase+64*8, sim.Event{}, sim.Event{Fn: func(uint64) { writeDone = k.Now() }})
	c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { readDone = k.Now() }})
	k.RunUntil(func() bool { return readDone != 0 && writeDone != 0 }, 10000)
	if readDone > writeDone {
		t.Fatalf("read done at %d after write at %d despite read-first", readDone, writeDone)
	}
}

func TestWriteDrainTriggersAtThreshold(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	c := New(k, cfg)
	// Keep a steady read supply so writes would starve without a drain.
	reads := 0
	var feed func()
	feed = func() {
		reads++
		if reads < 200 {
			c.Read(memaddr.NVMBase+uint64(reads%4)*64, sim.Event{Fn: func(uint64) { feed() }})
		}
	}
	feed()
	writesDone := 0
	for i := 0; i < cfg.DrainHigh+5; i++ {
		c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{Fn: func(uint64) { writesDone++ }})
	}
	k.RunUntil(func() bool { return writesDone >= 20 }, 200000)
	if c.Stats().DrainEntries == 0 {
		t.Fatal("write queue exceeded threshold but no drain started")
	}
	if writesDone < 20 {
		t.Fatalf("only %d writes completed under read pressure", writesDone)
	}
}

func TestOpportunisticWritesWhenNoReads(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	done := 0
	for i := 0; i < 5; i++ {
		c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{Fn: func(uint64) { done++ }})
	}
	k.RunUntil(func() bool { return done == 5 }, 10000)
	if done != 5 {
		t.Fatalf("%d/5 writes completed with empty read queue", done)
	}
	if c.Stats().DrainEntries != 0 {
		t.Fatal("drain triggered below threshold")
	}
}

func TestQuiescent(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	if !c.Quiescent() {
		t.Fatal("fresh controller not quiescent")
	}
	fired := false
	c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { fired = true }})
	if c.Quiescent() {
		t.Fatal("controller with pending read is quiescent")
	}
	k.RunUntil(func() bool { return fired }, 10000)
	if !c.Quiescent() {
		t.Fatal("controller not quiescent after completion")
	}
}

func TestReadLatencyStats(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	n := 0
	for i := 0; i < 10; i++ {
		c.Read(memaddr.NVMBase+uint64(i)*64, sim.Event{Fn: func(uint64) { n++ }})
	}
	k.RunUntil(func() bool { return n == 10 }, 100000)
	s := c.Stats()
	if s.Reads != 10 || s.ReadLatencySum == 0 || s.ReadLatencyMax == 0 {
		t.Fatalf("latency stats not accumulated: %+v", s)
	}
	if s.ReadLatencySum/s.Reads > s.ReadLatencyMax {
		t.Fatal("mean read latency exceeds max")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Banks == 0 || c.ReadWindow == 0 || c.WriteWindow == 0 ||
		c.DrainHigh == 0 || c.DrainLow == 0 || c.RowBytes == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if c.DrainHigh != c.WriteWindow*8/10 {
		t.Fatalf("DrainHigh = %d, want 80%% of %d", c.DrainHigh, c.WriteWindow)
	}
}

// Property: writes to the same line complete (apply) in issue order, for
// any interleaving with other traffic. The transaction cache's
// address-matched acknowledgments depend on this.
func TestQuickSameLineWriteOrdering(t *testing.T) {
	f := func(seq []uint8) bool {
		k := sim.NewKernel()
		c := New(k, testConfig())
		var got []int
		n := 0
		for i, s := range seq {
			if len(got) > 60 {
				break
			}
			line := memaddr.NVMBase + uint64(s%4)*64*4 // few distinct lines
			id := i
			c.Write(line, sim.Event{}, sim.Event{Fn: func(uint64) { got = append(got, id) }})
			n++
			// Interleave some reads for scheduling noise.
			if s%3 == 0 {
				c.Read(memaddr.NVMBase+uint64(s)*64, sim.Event{})
			}
		}
		k.RunUntil(c.Quiescent, 1_000_000)
		if len(got) != n && n <= 60 {
			return false
		}
		// For each line, completion ids must be increasing among the
		// ids that wrote that line.
		lineOf := func(id int) uint64 { return uint64(seq[id]%4) * 64 * 4 }
		last := map[uint64]int{}
		for _, id := range got {
			l := lineOf(id)
			if prev, ok := last[l]; ok && prev > id {
				return false
			}
			last[l] = id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every read eventually completes, regardless of write
// pressure (no starvation under drain mode).
func TestQuickNoReadStarvation(t *testing.T) {
	f := func(nWrites uint8) bool {
		k := sim.NewKernel()
		c := New(k, testConfig())
		for i := 0; i < int(nWrites); i++ {
			c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{})
		}
		done := false
		c.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { done = true }})
		k.RunUntil(func() bool { return done }, 1_000_000)
		return done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteQueuePeakTracksDepth(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	for i := 0; i < 10; i++ {
		c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{})
	}
	if c.Stats().WriteQueuePeak != 10 {
		t.Fatalf("peak = %d, want 10", c.Stats().WriteQueuePeak)
	}
}

func TestWearEmpty(t *testing.T) {
	w := newWear()
	if w.LinesTouched() != 0 || w.MaxLineWrites() != 0 || w.MeanLineWrites() != 0 || w.Hotness() != 0 {
		t.Fatal("empty wear tracker not all-zero")
	}
}

// observe attaches a sink over p to a standalone controller under
// global channel id, the way NewBackend wires its channels.
func observe(c *Controller, p *obs.Probe, id int) *obs.Sink {
	o := obs.NewSink(p, nil, 0)
	c.obs, c.id = o, id
	o.AddChannel(id, c.cfg.Name)
	return o
}

// TestOpenDrainWindowFlushedAtCollection: a write-drain window still
// open when the probe is collected surfaces as KWPQDrainOpen ending at
// the collection cycle.
func TestOpenDrainWindowFlushedAtCollection(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	c := New(k, cfg)
	p := obs.NewProbe(256)
	o := observe(c, p, 1)
	for i := 0; i < cfg.DrainHigh+5; i++ {
		c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{})
	}
	// A couple of ticks: the drain starts (queue >= DrainHigh) but is
	// nowhere near DrainLow yet.
	k.Step()
	k.Step()
	if c.Stats().DrainEntries != 1 {
		t.Fatalf("drains started = %d, want 1", c.Stats().DrainEntries)
	}
	if k.Awake() == 0 {
		t.Fatal("controller mid-drain sleeps")
	}
	o.FlushOpenSpans(k.Now())
	if n := p.CountKind(obs.KWPQDrainOpen); n != 1 {
		t.Fatalf("flushed %d open-drain spans, want 1", n)
	}
	for _, e := range p.Events() {
		if e.Kind == obs.KWPQDrainOpen {
			if e.End != k.Now() || e.Core != 1 {
				t.Fatalf("open span = %+v, want End=%d Core=1", e, k.Now())
			}
			if e.Arg != c.Stats().Writes {
				t.Fatalf("open span Arg = %d, want %d writes issued so far", e.Arg, c.Stats().Writes)
			}
		}
	}
}

// TestDrainSpanEndsWhenQueueReachesLow pins the drain-window accounting
// fixed in this change: the KWPQDrain span must end in the very cycle
// whose issue brought the queue down to DrainLow, not one tick later
// (the old code re-checked last cycle's queue before issuing).
func TestDrainSpanEndsWhenQueueReachesLow(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	c := New(k, cfg)
	p := obs.NewProbe(256)
	observe(c, p, 0)
	for i := 0; i < cfg.DrainHigh; i++ {
		c.Write(memaddr.NVMBase+uint64(i)*64, sim.Event{}, sim.Event{})
	}
	reachedLow := uint64(0)
	for i := 0; i < 100000 && p.CountKind(obs.KWPQDrain) == 0; i++ {
		k.Step()
		if reachedLow == 0 && c.PendingWrites() <= cfg.DrainLow {
			reachedLow = k.Now()
		}
	}
	if p.CountKind(obs.KWPQDrain) != 1 {
		t.Fatal("drain window never closed")
	}
	var span obs.Event
	for _, e := range p.Events() {
		if e.Kind == obs.KWPQDrain {
			span = e
		}
	}
	if span.End != reachedLow {
		t.Fatalf("drain span ends at %d, queue reached DrainLow at %d — span and accounting must agree",
			span.End, reachedLow)
	}
	if want := uint64(cfg.DrainHigh - c.PendingWrites()); span.Arg != want {
		t.Fatalf("drain span Arg = %d, want %d writes issued during the window", span.Arg, want)
	}
}

// TestConfigValidate covers the misconfigurations Validate must reject
// and the defaulted configuration it must accept.
func TestConfigValidate(t *testing.T) {
	if err := testConfig().WithDefaults().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaulted zero config rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero banks", func(c *Config) { c.Banks = -1 }},
		{"drain low >= high", func(c *Config) { c.DrainLow = c.DrainHigh }},
		{"drain low above high", func(c *Config) { c.DrainLow = c.DrainHigh + 10 }},
		{"negative read window", func(c *Config) { c.ReadWindow = -8 }},
		{"hit slower than miss", func(c *Config) { c.ReadHit = c.ReadMiss + 1 }},
	}
	for _, tc := range bad {
		cfg := testConfig().WithDefaults()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestIssueCompletionAllocationFree pins a read and a write round trip
// through the controller (enqueue, issue, completion with apply and
// done) at zero heap allocations once the queues and the in-flight slot
// table have grown.
func TestIssueCompletionAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, testConfig())
	var applied, done int
	apply := sim.Event{Fn: func(uint64) { applied++ }}
	complete := sim.Event{Fn: func(uint64) { done++ }}
	// Fixed lines: the wear tracker's per-line map must not grow inside
	// the measured window.
	roundTrip := func() {
		want := done + 2
		c.Read(memaddr.NVMBase, complete)
		c.Write(memaddr.NVMBase+64*1024, apply, complete)
		if _, ok := k.RunUntil(func() bool { return done == want }, k.Now()+10_000); !ok {
			t.Fatal("read/write round trip did not complete")
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("read+write round trip allocated %.1f times, want 0", allocs)
	}
	if applied != 101+1 || c.Stats().Reads != 102 || c.Stats().Writes != 102 {
		t.Fatalf("applied %d, reads %d, writes %d; want 102 each", applied, c.Stats().Reads, c.Stats().Writes)
	}
	if !c.Quiescent() {
		t.Fatal("controller not quiescent after every completion fired")
	}
}

// checkReady recounts every bank's scheduling-window entries and the
// idle banks among them from the queues, and checks the controller's
// counts, that ready is nonzero exactly when pick finds a command, and
// (fast-forward on, the controller the only component) that the
// controller sleeps exactly when nothing can issue and no drain start is
// pending.
func checkReady(c *Controller, k *sim.Kernel, ff bool) string {
	inWin := make([]int, len(c.banks))
	for i := 0; i < len(c.reads) && i < c.cfg.ReadWindow; i++ {
		inWin[c.reads[i].bank]++
	}
	for i := 0; i < len(c.writes) && i < c.cfg.WriteWindow; i++ {
		inWin[c.writes[i].bank]++
	}
	ready := 0
	for b, n := range inWin {
		if c.banks[b].inWin != n {
			return fmt.Sprintf("bank %d counts %d window entries, queues hold %d", b, c.banks[b].inWin, n)
		}
		if n > 0 && !c.banks[b].busy {
			ready++
		}
	}
	if c.ready != ready {
		return fmt.Sprintf("ready = %d, recount %d", c.ready, ready)
	}
	i, _ := c.pick()
	if (c.ready > 0) != (i >= 0) {
		return fmt.Sprintf("ready = %d but pick = %d", c.ready, i)
	}
	idle := i < 0 && (c.draining || len(c.writes) < c.cfg.DrainHigh)
	if ff && (k.Awake() == 0) != idle {
		return fmt.Sprintf("asleep = %v, want %v (pick %d, draining %v, %d writes)",
			k.Awake() == 0, idle, i, c.draining, len(c.writes))
	}
	return ""
}

// Property: over a random mix of reads and writes on few banks, with
// small windows and drain thresholds, the controller's ready count and
// sleep state agree with a full rescan after every entry point and every
// step, and the run completes every request on the same cycle with the
// same Stats whether the kernel fast-forwards or ticks every cycle.
func TestQuickReadyMatchesRescan(t *testing.T) {
	type run struct {
		done  []uint64
		stats Stats
		end   uint64
	}
	drive := func(shape uint8, ops []uint16, ff bool) (run, string) {
		k := sim.NewKernel()
		k.SetFastForward(ff)
		win := 1 + int(shape%4)
		c := New(k, Config{
			Name: "NVM", Banks: 1 + int(shape>>2%3), RowBytes: 256,
			ReadHit: 3, ReadMiss: 7, WriteHit: 5, WriteMiss: 11,
			ReadWindow: 1 + int(shape>>4%3), WriteWindow: win,
			DrainHigh: win + 1, DrainLow: int(shape >> 6 % 2),
		})
		r := run{done: make([]uint64, len(ops))}
		var fail string
		check := func() bool {
			if fail == "" {
				if msg := checkReady(c, k, ff); msg != "" {
					fail = fmt.Sprintf("cycle %d: %s", k.Now(), msg)
				}
			}
			return fail != ""
		}
		for i, op := range ops {
			k.RunUntil(check, k.Now()+uint64(op&15))
			line := memaddr.NVMBase + uint64(op>>4&31)*64
			at := sim.Event{Fn: func(uint64) { r.done[i] = k.Now() }}
			if op&(1<<9) != 0 {
				c.Write(line, sim.Event{}, at)
			} else {
				c.Read(line, at)
			}
			if check() {
				return r, fail
			}
		}
		if _, ok := k.RunUntil(func() bool { return check() || c.Quiescent() }, k.Now()+100_000); !ok {
			return r, "controller did not drain"
		}
		r.stats, r.end = c.Stats(), k.Now()
		return r, fail
	}
	f := func(shape uint8, ops []uint16) bool {
		ffRun, msg := drive(shape, ops, true)
		if msg != "" {
			t.Logf("fast-forward: %s", msg)
			return false
		}
		ref, msg := drive(shape, ops, false)
		if msg != "" {
			t.Logf("reference: %s", msg)
			return false
		}
		if ffRun.stats != ref.stats || ffRun.end != ref.end {
			t.Logf("stats or end cycle diverge:\n  ff:  %+v @%d\n  ref: %+v @%d", ffRun.stats, ffRun.end, ref.stats, ref.end)
			return false
		}
		for i := range ops {
			if ffRun.done[i] != ref.done[i] {
				t.Logf("request %d completed at %d with fast-forward, %d without", i, ffRun.done[i], ref.done[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkControllerDeepWriteQueue measures the controller with its
// write queue held near 180 entries over 32 banks, the depth the
// contended 16-core cell reaches: each op enqueues one write and steps
// the kernel until the queue is back under the mark, so it costs one
// request's enqueue, issue and completion plus the cycles spent waiting
// on busy banks.
func BenchmarkControllerDeepWriteQueue(b *testing.B) {
	const depth = 180
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Banks = 32
	c := New(k, cfg)
	// A fixed set of lines, visited in a scattered order, so the wear
	// tracker's map stops growing before the timed loop.
	next := uint64(0)
	write := func() {
		next = (next*1103515245 + 12345) % 4096
		c.Write(memaddr.NVMBase+next*64, sim.Event{}, sim.Event{})
	}
	for c.PendingWrites() < depth {
		write()
	}
	for i := 0; i < 10_000; i++ {
		write()
		for c.PendingWrites() >= depth {
			k.Step()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
		for c.PendingWrites() >= depth {
			k.Step()
		}
	}
	b.StopTimer()
	if c.PendingWrites() != depth-1 {
		b.Fatalf("%d writes pending, want %d", c.PendingWrites(), depth-1)
	}
}
