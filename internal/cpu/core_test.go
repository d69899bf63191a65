package cpu

import (
	"math"
	"reflect"
	"testing"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

type fakeMem struct {
	k      *sim.Kernel
	reads  int
	writes int
}

func (m *fakeMem) Read(lineAddr uint64, done sim.Event) {
	m.reads++
	m.k.Schedule(130, done)
}

func (m *fakeMem) Write(lineAddr uint64, apply, onDurable sim.Event) {
	m.writes++
	// Back-to-back schedules fire back to back: apply, then onDurable.
	m.k.Schedule(152, apply)
	m.k.Schedule(152, onDurable)
}

func testHier(k *sim.Kernel) (*cache.Hierarchy, *fakeMem) {
	mem := &fakeMem{k: k}
	return smallHier(k, mem, 1), mem
}

// smallHier builds a small hierarchy for cores cores over mem.
func smallHier(k *sim.Kernel, mem cache.Memory, cores int) *cache.Hierarchy {
	return cache.New(k, cache.Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 4,
	}, mem, cache.Hooks{}, cores, nil)
}

func runCore(t *testing.T, tr *trace.Trace, pers Persistence) (*sim.Kernel, *Core) {
	t.Helper()
	k := sim.NewKernel()
	h, _ := testHier(k)
	c := New(k, 0, 8, h, pers, trace.NewReader(tr), nil, nil, nil)
	if _, ok := k.RunUntil(c.Finished, 10_000_000); !ok {
		t.Fatal("core did not finish")
	}
	return k, c
}

func TestComputeRetiresAtIssueWidth(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Compute(40))
	k, c := runCore(t, &tr, nil)
	if c.Stats().Instructions != 40 {
		t.Fatalf("instructions = %d, want 40", c.Stats().Instructions)
	}
	// 40 instructions at width 4 = 10 cycles.
	if got := c.Stats().DoneAt; got != 10 {
		t.Fatalf("finished at cycle %d, want 10", got)
	}
	_ = k
}

func TestDependentLoadSerializes(t *testing.T) {
	// A dependent load may not issue while another load is outstanding:
	// two chained misses cost two full memory latencies.
	var chained, overlapped trace.Trace
	chained.Append(trace.Load(memaddr.DRAMBase), trace.LoadDep(memaddr.DRAMBase+4096))
	overlapped.Append(trace.Load(memaddr.DRAMBase), trace.Load(memaddr.DRAMBase+4096))
	_, a := runCore(t, &chained, nil)
	_, b := runCore(t, &overlapped, nil)
	if a.Stats().Breakdown.LoadStall < 100 {
		t.Fatalf("dependent load stalled %d cycles, want >= 100", a.Stats().Breakdown.LoadStall)
	}
	if a.Stats().DoneAt < b.Stats().DoneAt+100 {
		t.Fatalf("chained loads (%d) not ~one latency slower than overlapped (%d)",
			a.Stats().DoneAt, b.Stats().DoneAt)
	}
}

func TestIndependentLoadsOverlapUpToMLP(t *testing.T) {
	// 8 independent misses to distinct lines finish in far less than 8
	// serial latencies.
	var tr trace.Trace
	for i := 0; i < 8; i++ {
		tr.Append(trace.Load(memaddr.DRAMBase + uint64(i)*4096))
	}
	_, c := runCore(t, &tr, nil)
	if c.Stats().DoneAt > 600 {
		t.Fatalf("8 independent misses took %d cycles, want overlapped (< 600)", c.Stats().DoneAt)
	}
}

func TestMLPWindowLimitsOutstandingLoads(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 20; i++ {
		tr.Append(trace.Load(memaddr.DRAMBase + uint64(i)*4096))
	}
	k := sim.NewKernel()
	h, _ := testHier(k)
	c := New(k, 0, 2, h, nil, trace.NewReader(&tr), nil, nil, nil)
	k.RunUntil(c.Finished, 10_000_000)
	if c.Stats().Breakdown.LoadStall == 0 {
		t.Fatal("MLP=2 window never stalled 20 parallel misses")
	}
}

func TestPersistentLoadLatencyMeasured(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Load(memaddr.NVMBase), trace.LoadDep(memaddr.NVMBase))
	_, c := runCore(t, &tr, nil)
	s := c.Stats()
	if s.PersistentLoads != 2 {
		t.Fatalf("persistent loads = %d, want 2", s.PersistentLoads)
	}
	// First misses everywhere (~161), second hits L1 (1 cycle).
	if s.PersistentLoadLatencySum < 150 || s.PersistentLoadLatencySum > 200 {
		t.Fatalf("persistent load latency sum = %d, want ~162", s.PersistentLoadLatencySum)
	}
}

func TestStoresArePosted(t *testing.T) {
	// Stores don't block the core: 8 stores + compute should finish
	// far sooner than 8 serialized miss latencies.
	var tr trace.Trace
	tr.Append(trace.TxBegin(1))
	for i := 0; i < 8; i++ {
		tr.Append(trace.Store(memaddr.NVMBase+uint64(i)*64, uint64(i)))
	}
	tr.Append(trace.TxEnd(1), trace.Compute(8))
	_, c := runCore(t, &tr, nil)
	s := c.Stats()
	if s.Stores != 8 || s.Transactions != 1 {
		t.Fatalf("stores/tx = %d/%d, want 8/1", s.Stores, s.Transactions)
	}
	// TxEnd drains the store buffer (commit ordering), so the run costs
	// about one round of merged misses, not eight serialized ones.
	if s.DoneAt > 500 {
		t.Fatalf("finished at %d, want < 500", s.DoneAt)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1))
	for i := 0; i < 64; i++ {
		tr.Append(trace.Store(memaddr.NVMBase+uint64(i)*64, uint64(i)))
	}
	tr.Append(trace.TxEnd(1))
	_, c := runCore(t, &tr, nil)
	if c.Stats().Breakdown.StoreBufStall == 0 {
		t.Fatal("64 missing stores never filled the 16-entry store buffer")
	}
}

func TestModeRegisterTracksTransactions(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(5), trace.Store(memaddr.NVMBase, 1), trace.TxEnd(5))
	k := sim.NewKernel()
	h, _ := testHier(k)
	var modeAtStore uint64
	pers := &recordingPersistence{onStore: func(core int, txID uint64) { modeAtStore = txID }}
	c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	if modeAtStore != 5 {
		t.Fatalf("mode at store = %d, want 5", modeAtStore)
	}
	if c.Mode() != 0 {
		t.Fatalf("mode after TxEnd = %d, want 0 (normal mode)", c.Mode())
	}
}

type recordingPersistence struct {
	NullPersistence
	onStore  func(core int, txID uint64)
	ends     []uint64
	stallTx  bool
	resumeAt uint64
	k        *sim.Kernel
}

func (p *recordingPersistence) TxEnd(core int, txID uint64, resume sim.Event) bool {
	p.ends = append(p.ends, txID)
	if p.stallTx {
		p.k.Schedule(p.resumeAt, resume)
		return true
	}
	return false
}

func (p *recordingPersistence) Store(core int, txID uint64, addr, value uint64, _ sim.Event) StoreAction {
	if p.onStore != nil {
		p.onStore(core, txID)
	}
	return StoreAction{}
}

func TestTxEndStallWaitsForResume(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.TxEnd(1), trace.Compute(4))
	k := sim.NewKernel()
	h, _ := testHier(k)
	pers := &recordingPersistence{stallTx: true, resumeAt: 300, k: k}
	c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	s := c.Stats()
	if s.Breakdown.CommitWait < 250 {
		t.Fatalf("commit stall = %d cycles, want >= 250", s.Breakdown.CommitWait)
	}
	if s.Transactions != 1 {
		t.Fatalf("transactions = %d, want 1", s.Transactions)
	}
}

type retryOncePersistence struct {
	NullPersistence
	retries int
}

func (p *retryOncePersistence) Store(core int, txID uint64, addr, value uint64, _ sim.Event) StoreAction {
	if p.retries > 0 {
		p.retries--
		return StoreAction{Retry: true}
	}
	return StoreAction{}
}

func TestStoreRetryStalls(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.TxEnd(1))
	k := sim.NewKernel()
	h, _ := testHier(k)
	pers := &retryOncePersistence{retries: 5}
	c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	if c.Stats().Breakdown.TCFullStall != 5 {
		t.Fatalf("retry stalls = %d, want 5", c.Stats().Breakdown.TCFullStall)
	}
	if c.Stats().Stores != 1 {
		t.Fatalf("stores = %d, want 1 (eventually issued)", c.Stats().Stores)
	}
}

// parkingPersistence answers the first persistent store with a parked
// retry and fires its wake cycles later, the way a full transaction
// cache's drain ack does; any retry before then would get the same
// answer. calls counts the stores presented.
type parkingPersistence struct {
	NullPersistence
	k      *sim.Kernel
	cycles uint64
	wakeAt uint64 // 0 until the first store
	calls  int
}

func (p *parkingPersistence) Store(core int, txID uint64, addr, value uint64, wake sim.Event) StoreAction {
	p.calls++
	if p.wakeAt == 0 {
		p.wakeAt = p.k.Now() + p.cycles
		p.k.ScheduleAt(p.wakeAt, wake)
	}
	if p.k.Now() < p.wakeAt {
		return StoreAction{Retry: true, Park: true}
	}
	return StoreAction{}
}

// A parked store sleeps the core until the mechanism's wake, and the
// slept cycles are charged as tc-full stalls. A tick-everything run
// charges the same cycles without presenting the store again: both runs
// present it twice, at the reject and after the wake.
func TestParkedStoreSleepsUntilWake(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.TxEnd(1), trace.Compute(8))
	var midPark, final [2]Stats
	for i, ff := range []bool{true, false} {
		k := sim.NewKernel()
		k.SetFastForward(ff)
		h, _ := testHier(k)
		pers := &parkingPersistence{k: k, cycles: 200}
		c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
		k.RunUntil(func() bool { return pers.wakeAt != 0 }, 1000)
		k.RunUntil(func() bool { return false }, pers.wakeAt-1)
		if ff && (k.Awake() != 0 || k.Skipped() == 0) {
			t.Fatalf("mid-park: %d components awake, %d cycles skipped; want the core asleep and the clock jumping",
				k.Awake(), k.Skipped())
		}
		midPark[i] = c.Stats()
		if _, ok := k.RunUntil(c.Finished, 1_000_000); !ok {
			t.Fatal("core did not finish")
		}
		final[i] = c.Stats()
		if pers.calls != 2 {
			t.Fatalf("fast-forward %v: store presented %d times, want 2", ff, pers.calls)
		}
	}
	if midPark[0] != midPark[1] {
		t.Fatalf("mid-park stats diverge:\n  ff:  %+v\n  ref: %+v", midPark[0], midPark[1])
	}
	if final[0] != final[1] {
		t.Fatalf("final stats diverge:\n  ff:  %+v\n  ref: %+v", final[0], final[1])
	}
	if s := final[0]; s.Breakdown.TCFullStall != 200 || s.Stores != 1 {
		t.Fatalf("tc-full cycles %d, stores %d; want 200, 1", s.Breakdown.TCFullStall, s.Stores)
	}
}

func TestVolatileStoreSkipsPersistence(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Store(memaddr.DRAMBase, 7))
	k := sim.NewKernel()
	h, _ := testHier(k)
	called := false
	pers := &recordingPersistence{onStore: func(int, uint64) { called = true }}
	c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	if called {
		t.Fatal("Persistence.Store called for a volatile store")
	}
}

func TestSFenceWaitsForFlushes(t *testing.T) {
	var tr trace.Trace
	tr.Append(
		trace.TxBegin(1),
		trace.Store(memaddr.NVMBase, 1),
		trace.CLWB(memaddr.NVMBase),
		trace.SFence(),
		trace.TxEnd(1),
	)
	_, c := runCore(t, &tr, nil)
	s := c.Stats()
	if s.Breakdown.FenceStall < 100 {
		t.Fatalf("fence stall = %d, want >= 100 (NVM write latency)", s.Breakdown.FenceStall)
	}
}

func TestCLWBIsPostedWithoutFence(t *testing.T) {
	// A clwb without a following sfence does not stall retirement: the
	// core accrues no fence-stall cycles even though the flush takes an
	// NVM write latency to drain.
	var noFence, withFence trace.Trace
	noFence.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.CLWB(memaddr.NVMBase), trace.TxEnd(1), trace.Compute(40))
	withFence.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.CLWB(memaddr.NVMBase), trace.SFence(), trace.TxEnd(1), trace.Compute(40))
	_, a := runCore(t, &noFence, nil)
	_, b := runCore(t, &withFence, nil)
	if a.Stats().Breakdown.FenceStall != 0 {
		t.Fatalf("unfenced clwb accrued %d fence-stall cycles", a.Stats().Breakdown.FenceStall)
	}
	if b.Stats().Breakdown.FenceStall < 100 {
		t.Fatalf("fenced clwb accrued only %d fence-stall cycles", b.Stats().Breakdown.FenceStall)
	}
}

func TestOnStoreRetireAppliesValues(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 42), trace.TxEnd(1))
	k := sim.NewKernel()
	h, _ := testHier(k)
	got := map[uint64]uint64{}
	c := New(k, 0, 8, h, nil, trace.NewReader(&tr), func(a, v uint64) uint64 { old := got[a]; got[a] = v; return old }, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	if got[memaddr.NVMBase] != 42 {
		t.Fatalf("live image = %v, want 42 at NVMBase", got)
	}
}

// abortOncePersistence aborts the first store to abortAt and records the
// live word at every store it is asked about.
type abortOncePersistence struct {
	NullPersistence
	live    map[uint64]uint64
	abortAt uint64
	aborted bool
	seen    []uint64
}

func (p *abortOncePersistence) Store(core int, txID uint64, addr, value uint64, _ sim.Event) StoreAction {
	p.seen = append(p.seen, p.live[memaddr.NVMBase])
	if addr == p.abortAt && !p.aborted {
		p.aborted = true
		return StoreAction{Abort: true}
	}
	return StoreAction{}
}

// TestAbortRestoresLiveWords: a conflict abort undoes the squashed
// attempt's retired persistent stores in the live image, newest first,
// before the transaction replays.
func TestAbortRestoresLiveWords(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.Store(memaddr.NVMBase, 2),
		trace.Store(memaddr.NVMBase+8, 3), trace.TxEnd(1))
	k := sim.NewKernel()
	h, _ := testHier(k)
	live := map[uint64]uint64{memaddr.NVMBase: 7}
	pers := &abortOncePersistence{live: live, abortAt: memaddr.NVMBase + 8}
	c := New(k, 0, 8, h, pers, trace.NewReader(&tr),
		func(a, v uint64) uint64 { old := live[a]; live[a] = v; return old }, nil, nil)
	k.RunUntil(c.Finished, 1_000_000)
	// The first attempt sees 7, 1, 2; the replay starts from the
	// restored 7 again.
	if want := []uint64{7, 1, 2, 7, 1, 2}; !reflect.DeepEqual(pers.seen, want) {
		t.Fatalf("live word at each store = %v, want %v", pers.seen, want)
	}
	if live[memaddr.NVMBase] != 2 || live[memaddr.NVMBase+8] != 3 || c.Stats().TxAborts != 1 {
		t.Fatalf("live image %v after %d aborts, want the committed attempt's values after 1", live, c.Stats().TxAborts)
	}
}

func TestIPCNearOneForL1Resident(t *testing.T) {
	// A loop over one hot line: after the cold miss, loads hit L1 and
	// compute flows at width 4. IPC should comfortably exceed 1.
	var tr trace.Trace
	for i := 0; i < 500; i++ {
		tr.Append(trace.Load(memaddr.DRAMBase), trace.Compute(8))
	}
	_, c := runCore(t, &tr, nil)
	s := c.Stats()
	ipc := float64(s.Instructions) / float64(s.DoneAt)
	if ipc < 1.0 {
		t.Fatalf("hot-loop IPC = %.2f, want >= 1", ipc)
	}
}

func TestPloadHistogramAndPercentile(t *testing.T) {
	var tr trace.Trace
	// One slow (miss ~161cy) and three fast (L1-hit, 1cy) persistent loads.
	tr.Append(trace.Load(memaddr.NVMBase))
	for i := 0; i < 3; i++ {
		tr.Append(trace.LoadDep(memaddr.NVMBase))
	}
	_, c := runCore(t, &tr, nil)
	s := c.Stats()
	var total uint64
	for _, n := range s.PloadHist {
		total += n
	}
	if total != 4 {
		t.Fatalf("histogram holds %d loads, want 4", total)
	}
	// P50 covers the fast loads; P99 must reach the miss bucket.
	p50 := PloadPercentile(s, 0.5)
	p99 := PloadPercentile(s, 0.99)
	if p50 > 3 {
		t.Fatalf("P50 = %d, want <= 3 (L1 hits)", p50)
	}
	if p99 < 128 {
		t.Fatalf("P99 = %d, want >= 128 (covers the miss)", p99)
	}
}

func TestPloadPercentileEmpty(t *testing.T) {
	if PloadPercentile(Stats{}, 0.99) != 0 {
		t.Fatal("empty stats percentile not 0")
	}
	// The histogram is authoritative: a nonzero PersistentLoads counter
	// with an empty histogram (e.g. stats merged from partial sources)
	// must not panic or divide by zero.
	if got := PloadPercentile(Stats{PersistentLoads: 7}, 0.5); got != 0 {
		t.Fatalf("empty histogram with PersistentLoads=7: got %d, want 0", got)
	}
}

func TestPloadPercentileSingleBucket(t *testing.T) {
	var s Stats
	s.PloadHist[3] = 10 // every load in [4,7] cycles
	want := uint64(1<<3) - 1
	for _, p := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := PloadPercentile(s, p); got != want {
			t.Errorf("P%.0f = %d, want %d (single bucket)", p*100, got, want)
		}
	}
	// Bucket 0 reports latency 0 (sub-cycle bound).
	var z Stats
	z.PloadHist[0] = 5
	if got := PloadPercentile(z, 0.99); got != 0 {
		t.Errorf("bucket-0 percentile = %d, want 0", got)
	}
}

func TestPloadPercentileDegenerateP(t *testing.T) {
	var s Stats
	s.PloadHist[2] = 4
	if got := PloadPercentile(s, 0); got != 0 {
		t.Errorf("p=0: got %d, want 0", got)
	}
	if got := PloadPercentile(s, -0.5); got != 0 {
		t.Errorf("p<0: got %d, want 0", got)
	}
	if got := PloadPercentile(s, math.NaN()); got != 0 {
		t.Errorf("p=NaN: got %d, want 0", got)
	}
	// p > 1 clamps to the last occupied bucket rather than overrunning.
	want := uint64(1<<2) - 1
	if got := PloadPercentile(s, 2.5); got != want {
		t.Errorf("p>1: got %d, want %d", got, want)
	}
}

func TestMergeHist(t *testing.T) {
	a := [18]uint64{1, 2}
	b := [18]uint64{0, 3, 5}
	m := MergeHist(a, b)
	if m[0] != 1 || m[1] != 5 || m[2] != 5 {
		t.Fatalf("merge = %v", m[:3])
	}
}

// loopReader replays a fixed record sequence forever without allocating.
type loopReader struct {
	recs []trace.Record
	i    int
}

func (r *loopReader) Next() (trace.Record, bool) {
	rec := r.recs[r.i%len(r.recs)]
	r.i++
	return rec, true
}

// TestLoadStoreCompletionAllocationFree pins the core's load and store
// paths (issue into the hierarchy, completion back into the core,
// persistent-load latency accounting) at zero heap allocations.
func TestLoadStoreCompletionAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	h, _ := testHier(k)
	rd := &loopReader{recs: []trace.Record{
		trace.LoadDep(memaddr.NVMBase),
		trace.Store(memaddr.NVMBase+64, 7),
		trace.Compute(3),
	}}
	c := New(k, 0, 8, h, nil, rd, nil, nil, nil)
	for i := 0; i < 1000; i++ {
		k.Step()
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 20; i++ {
			k.Step()
		}
	}); allocs != 0 {
		t.Fatalf("core load/store completions allocated %.1f times per 20 cycles, want 0", allocs)
	}
	after := c.Stats()
	if after.PersistentLoads-before.PersistentLoads < 100 || after.Stores-before.Stores < 100 {
		t.Fatalf("measured window completed %d persistent loads and issued %d stores, want >= 100 each",
			after.PersistentLoads-before.PersistentLoads, after.Stores-before.Stores)
	}
}

// A core waiting at TX_END for its own store to drain sleeps and holds
// the clock, so with fast-forward on every cycle of the wait counts as
// stepped, none as skipped, without the core ticking, and the skipped
// Ticks owe CommitWait: a
// mid-wait Stats charges every waited cycle, the wait calls neither the
// mechanism nor the hierarchy, and TX_END retires on the same cycle as in
// the tick-everything run.
func TestTxEndDrainWaitSleepsHeld(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 1), trace.TxEnd(1), trace.Compute(8))
	var mid, final [2]Stats
	var retired [2]uint64
	for i, ff := range []bool{true, false} {
		k := sim.NewKernel()
		k.SetFastForward(ff)
		h, _ := testHier(k)
		stores := 0
		pers := &recordingPersistence{onStore: func(int, uint64) { stores++ }}
		persCalls := func() int { return len(pers.ends) + stores }
		c := New(k, 0, 8, h, pers, trace.NewReader(&tr), nil, nil, nil)
		// Cycle 1 retires TX_BEGIN and issues the store, whose miss
		// holds TX_END for about 160 cycles.
		k.Step()
		calls, l1 := persCalls(), h.L1(0).Hits+h.L1(0).Misses
		k.RunUntil(func() bool { return false }, 100)
		if k.Skipped() != 0 {
			t.Fatalf("fast-forward %v: %d cycles skipped mid-wait, want 0", ff, k.Skipped())
		}
		if ff && (k.Awake() != 0 || k.Holds() != 1 || !c.held) {
			t.Fatalf("mid-wait: %d components awake, %d holds (core holds: %v); want the core asleep holding the clock",
				k.Awake(), k.Holds(), c.held)
		}
		if !ff && (k.Holds() != 0 || c.held) {
			t.Fatalf("no fast-forward: %d holds (core holds: %v), want none", k.Holds(), c.held)
		}
		if ff != (c.owed == &c.stats.Breakdown.CommitWait) {
			t.Fatalf("fast-forward %v: mid-wait Ticks owe %p, want CommitWait only with fast-forward on", ff, c.owed)
		}
		mid[i] = c.Stats()
		if got := mid[i].Breakdown.CommitWait; got != k.Now() {
			t.Fatalf("fast-forward %v: mid-wait commit-wait cycles %d, want %d", ff, got, k.Now())
		}
		if persCalls() != calls || h.L1(0).Hits+h.L1(0).Misses != l1 {
			t.Fatalf("fast-forward %v: the wait made %d mechanism calls and %d hierarchy accesses, want none",
				ff, persCalls()-calls, h.L1(0).Hits+h.L1(0).Misses-l1)
		}
		for c.Mode() != 0 {
			k.Step()
		}
		retired[i] = k.Now()
		if k.Holds() != 0 || c.held {
			t.Fatalf("fast-forward %v: %d holds after TX_END retired, want none", ff, k.Holds())
		}
		if _, ok := k.RunUntil(c.Finished, 1_000_000); !ok {
			t.Fatal("core did not finish")
		}
		final[i] = c.Stats()
	}
	if retired[0] != retired[1] {
		t.Fatalf("TX_END retired at cycle %d with fast-forward, %d without", retired[0], retired[1])
	}
	if mid[0] != mid[1] {
		t.Fatalf("mid-wait stats diverge:\n  ff:  %+v\n  ref: %+v", mid[0], mid[1])
	}
	if final[0] != final[1] {
		t.Fatalf("final stats diverge:\n  ff:  %+v\n  ref: %+v", final[0], final[1])
	}
}

// silentMem never answers: every miss stays outstanding.
type silentMem struct{}

func (silentMem) Read(uint64, sim.Event)             {}
func (silentMem) Write(uint64, sim.Event, sim.Event) {}

// BenchmarkCoreDrainWaitTick measures one kernel step of 16 cores that
// all wait at TX_END for a store the memory never answers, with the rest
// of the machine asleep: the cost of a drain wait that sleeps and holds
// the clock.
func BenchmarkCoreDrainWaitTick(b *testing.B) {
	const cores = 16
	k := sim.NewKernel()
	h := smallHier(k, silentMem{}, cores)
	cs := make([]*Core, cores)
	for i := range cs {
		var tr trace.Trace
		tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase+uint64(i)*memaddr.LineSize, 1), trace.TxEnd(1))
		cs[i] = New(k, i, 8, h, nil, trace.NewReader(&tr), nil, nil, nil)
	}
	for i := 0; i < 100; i++ {
		k.Step()
	}
	if k.Awake() != 0 || k.Holds() != cores {
		b.Fatalf("%d components awake and %d holds, want none awake and the %d waiting cores holding",
			k.Awake(), k.Holds(), cores)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	for _, c := range cs {
		if got := c.Stats().Breakdown.CommitWait; got != k.Now() {
			b.Fatalf("core %d: commit-wait cycles %d, want %d", c.ID(), got, k.Now())
		}
	}
}
