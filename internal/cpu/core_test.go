package cpu

import (
	"math"
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
	h := cache.New(k, cache.Config{
		L1Size: 1 << 10, L1Ways: 2, L1Latency: 1,
		L2Size: 4 << 10, L2Ways: 4, L2Latency: 9,
		LLCSize: 16 << 10, LLCWays: 4, LLCLatency: 20,
	}, mem, cache.Hooks{}, 1)
	return h, mem
}

func runCore(t *testing.T, tr *trace.Trace, pers Persistence) (*sim.Kernel, *Core) {
	t.Helper()
	k := sim.NewKernel()
	h, _ := testHier(k)
	c := New(k, 0, Config{}, h, pers, trace.NewReader(tr), nil)
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
	if a.Stats().StallLoad < 100 {
		t.Fatalf("dependent load stalled %d cycles, want >= 100", a.Stats().StallLoad)
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
	c := New(k, 0, Config{MLP: 2}, h, nil, trace.NewReader(&tr), nil)
	k.RunUntil(c.Finished, 10_000_000)
	if c.Stats().StallLoad == 0 {
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
	if c.Stats().StallStoreBuf == 0 {
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
	c := New(k, 0, Config{}, h, pers, trace.NewReader(&tr), nil)
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
	begins   []uint64
	ends     []uint64
	stallTx  bool
	resumeAt uint64
	k        *sim.Kernel
}

func (p *recordingPersistence) TxBegin(core int, txID uint64) { p.begins = append(p.begins, txID) }

func (p *recordingPersistence) TxEnd(core int, txID uint64, resume sim.Event) bool {
	p.ends = append(p.ends, txID)
	if p.stallTx {
		p.k.Schedule(p.resumeAt, resume)
		return true
	}
	return false
}

func (p *recordingPersistence) Store(core int, txID uint64, addr, value uint64) StoreAction {
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
	c := New(k, 0, Config{}, h, pers, trace.NewReader(&tr), nil)
	k.RunUntil(c.Finished, 1_000_000)
	s := c.Stats()
	if s.StallCommit < 250 {
		t.Fatalf("commit stall = %d cycles, want >= 250", s.StallCommit)
	}
	if s.Transactions != 1 {
		t.Fatalf("transactions = %d, want 1", s.Transactions)
	}
}

type retryOncePersistence struct {
	NullPersistence
	retries int
}

func (p *retryOncePersistence) Store(core int, txID uint64, addr, value uint64) StoreAction {
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
	c := New(k, 0, Config{}, h, pers, trace.NewReader(&tr), nil)
	k.RunUntil(c.Finished, 1_000_000)
	if c.Stats().StallStoreRetry != 5 {
		t.Fatalf("retry stalls = %d, want 5", c.Stats().StallStoreRetry)
	}
	if c.Stats().Stores != 1 {
		t.Fatalf("stores = %d, want 1 (eventually issued)", c.Stats().Stores)
	}
}

func TestVolatileStoreSkipsPersistence(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Store(memaddr.DRAMBase, 7))
	k := sim.NewKernel()
	h, _ := testHier(k)
	called := false
	pers := &recordingPersistence{onStore: func(int, uint64) { called = true }}
	c := New(k, 0, Config{}, h, pers, trace.NewReader(&tr), nil)
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
	if s.StallFence < 100 {
		t.Fatalf("fence stall = %d, want >= 100 (NVM write latency)", s.StallFence)
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
	if a.Stats().StallFence != 0 {
		t.Fatalf("unfenced clwb accrued %d fence-stall cycles", a.Stats().StallFence)
	}
	if b.Stats().StallFence < 100 {
		t.Fatalf("fenced clwb accrued only %d fence-stall cycles", b.Stats().StallFence)
	}
}

func TestOnStoreRetireAppliesValues(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 42), trace.TxEnd(1))
	k := sim.NewKernel()
	h, _ := testHier(k)
	got := map[uint64]uint64{}
	c := New(k, 0, Config{}, h, nil, trace.NewReader(&tr), func(a, v uint64) { got[a] = v })
	k.RunUntil(c.Finished, 1_000_000)
	if got[memaddr.NVMBase] != 42 {
		t.Fatalf("live image = %v, want 42 at NVMBase", got)
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
	c := New(k, 0, Config{}, h, nil, rd, nil)
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
