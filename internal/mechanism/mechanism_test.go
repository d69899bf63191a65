package mechanism

import (
	"testing"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	k := sim.NewKernel()
	backend, err := memctrl.NewBackend(k, memctrl.Topology{},
		memctrl.Config{Name: "NVM", Banks: 4, ReadHit: 40, ReadMiss: 130, WriteHit: 120, WriteMiss: 152},
		memctrl.Config{Name: "DRAM", Banks: 4, ReadHit: 27, ReadMiss: 80, WriteHit: 27, WriteMiss: 80},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Env{
		K:       k,
		Cores:   2,
		Mem:     backend,
		Live:    memimage.New(),
		Durable: memimage.New(),
		TC:      txcache.Config{SizeBytes: 8 * 64, HighWaterFrac: 0.9},
		Oracle:  trace.NewOracle(2, memimage.New()),
	}
}

// generateTx queues one transaction's write set on env's oracle as
// core's, as the core's generator does when the core pulls the TX_END.
func generateTx(env *Env, core int, ws ...trace.Write) {
	r := trace.NewRecorder(memimage.New())
	g := trace.NewGenerator(func(emit func(trace.Record)) (bool, error) {
		r.SetSink(emit)
		r.TxBegin()
		for _, w := range ws {
			r.Store(w.Addr, w.Value)
		}
		r.TxEnd()
		return false, nil
	})
	g.SetOracle(env.Oracle, core)
	for _, ok := g.Next(); ok; _, ok = g.Next() {
	}
}

// durableLogCommits is the reference for SP's durable count: a full scan
// of core's durable log, counting the commit records before the first
// hole — the transactions SP's recovery replays. The oracle's count, kept
// incrementally as log lines land, must equal it at every cycle.
func durableLogCommits(m *sp, durable *memimage.Image, core int) uint64 {
	var n uint64
	for pos := m.logs[core].Base; pos < m.cursor[core]; pos += 16 {
		a := durable.ReadWord(pos)
		if a == 0 {
			break
		}
		if a == spCommitMagic {
			n++
		}
	}
	return n
}

// DurableLogCommits exposes durableLogCommits to the external tests,
// which run SP inside a whole system.
func DurableLogCommits(m Mechanism, durable *memimage.Image, core int) uint64 {
	return durableLogCommits(m.(*sp), durable, core)
}

func attach(env *Env, m Mechanism) *cache.Hierarchy {
	h := cache.New(env.K, cache.Config{
		L1Size: 1 << 10, L1Ways: 2, L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 4,
	}, env.Mem.(*memctrl.Backend), m.Hooks(), env.Cores, nil)
	m.Attach(h)
	return h
}

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range All {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
		if k.Description() == "unknown" {
			t.Errorf("%v lacks a description", k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestNewBuildsEveryKind(t *testing.T) {
	for _, k := range All {
		env := testEnv(t)
		attach(env, New(k, env))
	}
}

func TestOptimalIsTransparent(t *testing.T) {
	env := testEnv(t)
	m := New(Optimal, env)
	attach(env, m)
	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 5})
	if m.TxEnd(0, 1, sim.Event{}) {
		t.Fatal("optimal TxEnd requested a stall")
	}
	act := m.Store(0, 1, memaddr.NVMBase, 5, sim.Event{})
	if act.Retry || act.TxTag != 0 {
		t.Fatalf("optimal store action = %+v, want zero", act)
	}
	if !m.Drained() {
		t.Fatal("optimal not drained")
	}
	if got := env.Oracle.Committed(0); got != 1 {
		t.Fatalf("committed = %d, want 1", got)
	}
	// Recover is the identity.
	env.Durable.WriteWord(memaddr.NVMBase, 77)
	if got, _ := m.Recover(env.Durable); got.ReadWord(memaddr.NVMBase) != 77 {
		t.Fatalf("optimal recover changed durable state: %d", got.ReadWord(memaddr.NVMBase))
	}
}

func TestSPRewriteInjectsLoggingCode(t *testing.T) {
	env := testEnv(t)
	m := New(SP, env)
	attach(env, m)
	var tr trace.Trace
	tr.Append(
		trace.TxBegin(1),
		trace.Store(memaddr.NVMBase, 5),
		trace.Store(memaddr.NVMBase+8, 6),
		trace.TxEnd(1),
		trace.Compute(3),
	)
	rd := m.Rewrite(0, trace.NewReader(&tr))
	var out []trace.Record
	for {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	var logStores, flushes, fences, dataStores int
	seenEnd := false
	dataAfterEnd := 0
	for _, r := range out {
		switch {
		case r.Kind == trace.KindStore && memaddr.Classify(r.Addr) == memaddr.SpaceNVMLog:
			logStores++
		case r.Kind == trace.KindStore && memaddr.Classify(r.Addr) == memaddr.SpaceNVM:
			dataStores++
			if seenEnd {
				dataAfterEnd++
			}
		case r.Kind == trace.KindCLFlush:
			flushes++
		case r.Kind == trace.KindSFence:
			fences++
		case r.Kind == trace.KindTxEnd:
			seenEnd = true
		}
	}
	// 2 entries + 1 commit record, each 2 stores + clflush + sfence.
	if logStores != 6 || flushes != 3 || fences != 3 {
		t.Fatalf("log stores/flushes/fences = %d/%d/%d, want 6/3/3", logStores, flushes, fences)
	}
	// In-place data stores are deferred past the commit record.
	if dataStores != 2 || dataAfterEnd != 2 {
		t.Fatalf("data stores = %d (%d after TX_END), want 2 deferred", dataStores, dataAfterEnd)
	}
}

func TestSPRecoverReplaysCommittedOnly(t *testing.T) {
	env := testEnv(t)
	m := New(SP, env).(*sp)
	durable := memimage.New()
	base := m.logs[0].Base
	// Committed tx: two entries + commit record.
	durable.WriteWord(base, memaddr.NVMBase)
	durable.WriteWord(base+8, 11)
	durable.WriteWord(base+16, memaddr.NVMBase+8)
	durable.WriteWord(base+24, 22)
	durable.WriteWord(base+32, spCommitMagic)
	durable.WriteWord(base+40, 1)
	// In-flight tx: entry without commit record.
	durable.WriteWord(base+48, memaddr.NVMBase+16)
	durable.WriteWord(base+56, 99)
	out, _ := m.Recover(durable)
	if out.ReadWord(memaddr.NVMBase) != 11 || out.ReadWord(memaddr.NVMBase+8) != 22 {
		t.Fatal("committed transaction not replayed")
	}
	if out.ReadWord(memaddr.NVMBase+16) == 99 {
		t.Fatal("uncommitted entry was replayed")
	}
}

func TestSPRecoverStopsAtHole(t *testing.T) {
	env := testEnv(t)
	m := New(SP, env).(*sp)
	durable := memimage.New()
	base := m.logs[0].Base
	// Hole at the start; a (stale) commit record beyond it must be
	// ignored.
	durable.WriteWord(base+16, memaddr.NVMBase)
	durable.WriteWord(base+24, 5)
	durable.WriteWord(base+32, spCommitMagic)
	durable.WriteWord(base+40, 1)
	out, _ := m.Recover(durable)
	if out.ReadWord(memaddr.NVMBase) == 5 {
		t.Fatal("entries beyond a log hole were replayed")
	}
}

func TestTCacheStoreCommitDrain(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	if act := m.Store(0, 1, memaddr.NVMBase, 42, sim.Event{}); act.Retry {
		t.Fatal("store rejected by empty TC")
	}
	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 42})
	if m.TxEnd(0, 1, sim.Event{}) {
		t.Fatal("non-overflow commit requested a stall")
	}
	// The commit request reaching the nonvolatile TC is the durable
	// instant: the oracle folds the write set before any drain.
	if env.Oracle.Committed(0) != 1 || env.Oracle.Image().ReadWord(memaddr.NVMBase) != 42 {
		t.Fatal("commit not folded into the oracle")
	}
	env.K.RunUntil(m.Drained, 100000)
	if env.Durable.ReadWord(memaddr.NVMBase) != 42 {
		t.Fatalf("durable = %d after drain, want 42", env.Durable.ReadWord(memaddr.NVMBase))
	}
}

func TestTCacheRecoverReplaysCommittedEntries(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	m.Store(0, 1, memaddr.NVMBase, 10, sim.Event{})
	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 10})
	m.TxEnd(0, 1, sim.Event{})
	m.Store(0, 2, memaddr.NVMBase+8, 20, sim.Event{}) // active, uncommitted
	// Crash now, before any drain tick.
	out, _ := m.Recover(env.Durable)
	if out.ReadWord(memaddr.NVMBase) != 10 {
		t.Fatal("committed TC entry not recovered")
	}
	if out.ReadWord(memaddr.NVMBase+8) == 20 {
		t.Fatal("active TC entry leaked into recovery")
	}
}

func TestTCacheFullStallsStore(t *testing.T) {
	env := testEnv(t)
	env.TC.HighWaterFrac = 1.0 // disable fallback to reach Full
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	for i := 0; i < 8; i++ {
		if act := m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, 1, sim.Event{}); act.Retry {
			t.Fatalf("store %d rejected before capacity", i)
		}
	}
	if act := m.Store(0, 1, memaddr.NVMBase+64, 1, sim.Event{}); !act.Retry || !act.Park {
		t.Fatalf("store into full TC = %+v, want a parked retry", act)
	}
}

// The line arbiter's one-cycle arbitration retry must not park: the
// decision it waits for is consumed on the very next cycle, and no TC
// ack would ever wake the core.
func TestTCacheArbitrationRetryDoesNotPark(t *testing.T) {
	env := testEnv(t)
	env.Arb = txcache.NewLineArbiter(env.Cores)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	act := m.Store(0, 1, memaddr.SharedNVMBase, 1, sim.Event{})
	if !act.Retry || act.Park {
		t.Fatalf("first store to a shared line = %+v, want an unparked retry", act)
	}
	if act := m.Store(0, 1, memaddr.SharedNVMBase, 1, sim.Event{}); act.Retry || act.Abort {
		t.Fatalf("retry after the grant = %+v, want the store to proceed", act)
	}
}

func TestTCacheOverflowFallback(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	// High water = 7 of 8 entries: the 8th store falls back, evicting
	// the transaction to the shadow.
	for i := 0; i < 9; i++ {
		if act := m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, uint64(100+i), sim.Event{}); act.Retry {
			t.Fatalf("store %d stalled; fallback should absorb overflow", i)
		}
	}
	if fb := m.fb[0]; !fb.active || fb.tx != 1 {
		t.Fatalf("fall-back active %v for tx %d, want active for tx 1", fb.active, fb.tx)
	}
	if m.tcs[0].Occupancy() != 0 {
		t.Fatalf("TC still holds %d entries of the overflowed tx", m.tcs[0].Occupancy())
	}
	generateTx(env, 0)
	resumed := false
	if !m.TxEnd(0, 1, sim.Event{Fn: func(uint64) { resumed = true }}) {
		t.Fatal("overflowed commit did not stall")
	}
	if env.Oracle.Committed(0) != 0 {
		t.Fatal("overflowed tx counted committed before its commit record is durable")
	}
	env.K.RunUntil(func() bool { return resumed }, 100000)
	if !resumed {
		t.Fatal("overflowed commit never resumed")
	}
	if env.Oracle.Committed(0) != 1 {
		t.Fatal("overflowed tx not counted committed")
	}
	for i := 0; i < 9; i++ {
		if got := env.Durable.ReadWord(memaddr.NVMBase + uint64(i)*8); got != uint64(100+i) {
			t.Fatalf("durable word %d = %d, want %d", i, got, 100+i)
		}
	}
	if !m.Drained() {
		t.Fatal("mechanism not drained after fallback commit")
	}
}

func TestTCacheOverflowCrashBeforeCommitLosesNothingCommitted(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	for i := 0; i < 9; i++ {
		m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, uint64(100+i), sim.Event{})
	}
	// Crash before TxEnd: nothing of tx 1 may be recovered.
	out, _ := m.Recover(env.Durable)
	for i := 0; i < 9; i++ {
		if out.ReadWord(memaddr.NVMBase+uint64(i)*8) != 0 {
			t.Fatalf("uncommitted overflowed write %d leaked into recovery", i)
		}
	}
}

func TestTCacheDropsPersistentEvictions(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env)
	hooks := m.Hooks()
	if hooks.DropLLCEviction == nil {
		t.Fatal("TCache has no drop hook")
	}
	if !hooks.DropLLCEviction(cache.Line{Persistent: true, Dirty: true}) {
		t.Fatal("persistent victim not dropped")
	}
	if hooks.DropLLCEviction(cache.Line{Persistent: false, Dirty: true}) {
		t.Fatal("volatile victim dropped")
	}
}

func TestTCacheSidePathProbe(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	m.Store(1, 1, memaddr.NVMBase+128, 5, sim.Event{}) // core 1's TC
	hooks := m.Hooks()
	if !hooks.SidePathProbe(memaddr.NVMBase + 128) {
		t.Fatal("probe missed a buffered line")
	}
	if hooks.SidePathProbe(memaddr.NVMBase + 4096) {
		t.Fatal("probe hit an absent line")
	}
}

func TestKilnCommitFlushesAndCounts(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	h := attach(env, m)
	// Dirty a line in L1 under tx 1 via the hierarchy.
	done := false
	act := m.Store(0, 1, memaddr.NVMBase, 9, sim.Event{})
	if act.TxTag == 0 || !act.Uncommitted {
		t.Fatalf("kiln store action = %+v, want tagged", act)
	}
	env.Live.WriteWord(memaddr.NVMBase, 9)
	h.Access(0, memaddr.NVMBase, true, true, act.TxTag, act.Uncommitted, sim.Event{Fn: func(uint64) { done = true }})
	env.K.RunUntil(func() bool { return done }, 100000)

	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 9})
	resumed := false
	if !m.TxEnd(0, 1, sim.Event{Fn: func(uint64) { resumed = true }}) {
		t.Fatal("kiln commit did not stall")
	}
	env.K.RunUntil(func() bool { return resumed }, 100000)
	if env.Oracle.Committed(0) != 1 {
		t.Fatal("commit not counted")
	}
	// Recovery merges the committed dirty LLC line.
	out, _ := m.Recover(env.Durable)
	if out.ReadWord(memaddr.NVMBase) != 9 {
		t.Fatalf("recovered = %d, want 9 (from NV-LLC)", out.ReadWord(memaddr.NVMBase))
	}
}

func TestKilnUncommittedLinesDiscardedOnRecovery(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	h := attach(env, m)
	act := m.Store(0, 1, memaddr.NVMBase, 9, sim.Event{})
	env.Live.WriteWord(memaddr.NVMBase, 9)
	done := false
	h.Access(0, memaddr.NVMBase, true, true, act.TxTag, act.Uncommitted, sim.Event{Fn: func(uint64) { done = true }})
	env.K.RunUntil(func() bool { return done }, 100000)
	// No commit: even if the line were evicted into the LLC it stays
	// uncommitted. Force it there via FlushTx-free eviction is complex;
	// instead verify Recover of the durable image alone.
	out, _ := m.Recover(env.Durable)
	if out.ReadWord(memaddr.NVMBase) == 9 {
		t.Fatal("uncommitted value recovered")
	}
}

func TestKilnTagNamespacesCores(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	a := m.Store(0, 7, memaddr.NVMBase, 1, sim.Event{}).TxTag
	b := m.Store(1, 7, memaddr.NVMBase+8, 1, sim.Event{}).TxTag
	if a == b {
		t.Fatal("same tx id on different cores produced identical tags")
	}
}

// spWaitEnv is an SP mechanism over testEnv with a record of the
// resumed commit waits: resume(core) is the wait's continuation, and
// each resume appends its core and the cycle it fired.
type spWaitEnv struct {
	env     *Env
	m       Mechanism
	cores   []int
	cycles  []uint64
	resumed int
	resume  func(core int) sim.Event
}

func newSPWaitEnv(t *testing.T) *spWaitEnv {
	w := &spWaitEnv{env: testEnv(t)}
	w.m = New(SP, w.env)
	attach(w.env, w.m)
	fn := func(core uint64) {
		w.cores = append(w.cores, int(core))
		w.cycles = append(w.cycles, w.env.K.Now())
		w.resumed++
	}
	w.resume = func(core int) sim.Event { return sim.Event{Fn: fn, Arg: uint64(core)} }
	return w
}

// stepUntilDrained steps the kernel until the NVM write queues are
// empty and returns the cycle whose tick issued the last write.
func (w *spWaitEnv) stepUntilDrained(t *testing.T) uint64 {
	t.Helper()
	for i := 0; w.env.Mem.PendingNVMWrites() > 0; i++ {
		if i == 100000 {
			t.Fatal("NVM write queues never drained")
		}
		w.env.K.Step()
	}
	return w.env.K.Now()
}

func TestSPPcommitStallsUntilWriteQueueDrains(t *testing.T) {
	w := newSPWaitEnv(t)
	// With idle NVM write queues, TX_END is instant and holds nothing.
	if w.m.TxEnd(0, 1, w.resume(0)) {
		t.Fatal("TxEnd with idle NVM write queues stalled")
	}
	if h := w.env.K.Holds(); h != 0 {
		t.Fatalf("Holds = %d after an unstalled TxEnd, want 0", h)
	}
	// With writes pending at the NVM controller, TX_END stalls until
	// the queue drains (pcommit).
	w.env.Mem.Write(memaddr.NVMBase, sim.Event{}, sim.Event{})
	if !w.m.TxEnd(0, 2, w.resume(0)) {
		t.Fatal("TxEnd with pending NVM writes did not stall")
	}
	w.env.K.RunUntil(func() bool { return w.resumed > 0 }, 100000)
	if w.resumed != 1 {
		t.Fatalf("resumed %d times, want once (the stalled TxEnd only)", w.resumed)
	}
	if h := w.env.K.Holds(); h != 0 {
		t.Fatalf("Holds = %d after the resume, want 0", h)
	}
}

// TestSPPcommitResumesInTxEndOrder: the cores waiting on one drain resume
// together, on the cycle after it, in the order their TxEnds stalled,
// and SP drops the hold it took for each.
func TestSPPcommitResumesInTxEndOrder(t *testing.T) {
	w := newSPWaitEnv(t)
	w.env.Mem.Write(memaddr.NVMBase, sim.Event{}, sim.Event{})
	for _, core := range []int{1, 0} {
		if !w.m.TxEnd(core, 1, w.resume(core)) {
			t.Fatalf("core %d: TxEnd with a queued NVM write did not stall", core)
		}
	}
	if h := w.env.K.Holds(); h != 2 {
		t.Fatalf("Holds = %d with two cores waiting, want 2", h)
	}
	drained := w.stepUntilDrained(t)
	if w.resumed != 0 {
		t.Fatalf("resumed in the draining cycle %d", drained)
	}
	w.env.K.Step()
	if len(w.cores) != 2 || w.cores[0] != 1 || w.cores[1] != 0 {
		t.Fatalf("resumed cores %v, want [1 0]", w.cores)
	}
	for _, c := range w.cycles {
		if c != drained+1 {
			t.Fatalf("resumed at cycles %v, want %d", w.cycles, drained+1)
		}
	}
	if h := w.env.K.Holds(); h != 0 {
		t.Fatalf("Holds = %d after the last resume, want 0", h)
	}
}

// TestSPPcommitCheckWaitsForNextDrain: a write enqueued between the drain
// and the check (ahead of it in the next cycle) keeps the core waiting
// until that write issues too.
func TestSPPcommitCheckWaitsForNextDrain(t *testing.T) {
	w := newSPWaitEnv(t)
	w.env.Mem.Write(memaddr.NVMBase, sim.Event{}, sim.Event{})
	if !w.m.TxEnd(0, 1, w.resume(0)) {
		t.Fatal("TxEnd with a queued NVM write did not stall")
	}
	first := w.stepUntilDrained(t)
	// Another bank, so the second write does not wait for the first.
	w.env.Mem.Write(memaddr.NVMBase+memaddr.LineSize, sim.Event{}, sim.Event{})
	w.env.K.Step()
	if w.resumed != 0 {
		t.Fatalf("resumed at cycle %d with a write queued since the drain at %d", w.cycles[0], first)
	}
	if h := w.env.K.Holds(); h != 1 {
		t.Fatalf("Holds = %d while the core still waits, want 1", h)
	}
	second := w.stepUntilDrained(t)
	w.env.K.RunUntil(func() bool { return w.resumed > 0 }, second+10)
	if w.resumed != 1 || w.cycles[0] != second+1 {
		t.Fatalf("resumed %d times at cycles %v, want once at %d", w.resumed, w.cycles, second+1)
	}
	if h := w.env.K.Holds(); h != 0 {
		t.Fatalf("Holds = %d after the last resume, want 0", h)
	}
}

// TestSPPcommitWaitAllocationFree pins a whole commit wait, two cores
// stalling on a queued write and resuming after its drain, at zero heap
// allocations once the queues and the kernel's pools are warm.
func TestSPPcommitWaitAllocationFree(t *testing.T) {
	w := newSPWaitEnv(t)
	fn := func(uint64) { w.resumed++ }
	ev := sim.Event{Fn: fn}
	backend := w.env.Mem.(*memctrl.Backend)
	want := 0
	done := func() bool { return w.resumed == want && backend.Quiescent() }
	round := func() {
		w.env.Mem.Write(memaddr.NVMBase, sim.Event{}, sim.Event{})
		for core := 0; core < 2; core++ {
			if !w.m.TxEnd(core, 1, ev) {
				t.Fatal("TxEnd with a queued NVM write did not stall")
			}
		}
		want += 2
		if _, ok := w.env.K.RunUntil(done, w.env.K.Now()+100000); !ok {
			t.Fatal("commit wait never resumed")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocs per commit wait, want 0", allocs)
	}
	if h := w.env.K.Holds(); h != 0 {
		t.Fatalf("Holds = %d after the last resume, want 0", h)
	}
}

// TestTCacheOverflowCommitAllocationFree pins an overflowed commit's
// whole round trip at zero heap allocations once the queues and the
// kernel's pools are warm: an ordinary transaction leaves a committed
// entry draining out of the TC, then the next one overflows into shadow
// writes, its TX_END waits for them and for the TC drain, and the
// commit record's landing applies the shadow writes and resumes the
// core. Each round rewinds the shadow log to its base, so the NVM wear
// tracker sees no new page.
func TestTCacheOverflowCommitAllocationFree(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	for i := 0; i < 250; i++ {
		generateTx(env, 0)
	}
	resumed, want := 0, 0
	ev := sim.Event{Fn: func(uint64) { resumed++ }}
	backend := env.Mem.(*memctrl.Backend)
	done := func() bool { return resumed == want && m.Drained() && backend.Quiescent() }
	tx := uint64(0)
	round := func() {
		m.fb[0].cursor = m.fb[0].shadow.Base
		tx++
		m.Store(0, tx, memaddr.NVMBase+512, tx, sim.Event{})
		if m.TxEnd(0, tx, sim.Event{}) {
			t.Fatal("ordinary commit stalled")
		}
		tx++
		for i := 0; i < 9; i++ {
			m.Store(0, tx, memaddr.NVMBase+uint64(i)*8, tx+uint64(i), sim.Event{})
		}
		if !m.TxEnd(0, tx, ev) {
			t.Fatal("overflowed commit did not stall")
		}
		want++
		if _, ok := env.K.RunUntil(done, env.K.Now()+100000); !ok {
			t.Fatal("overflowed commit never resumed")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocs per overflowed commit, want 0", allocs)
	}
	if got := env.Durable.ReadWord(memaddr.NVMBase + 8); got != tx+1 {
		t.Fatalf("durable shadow-applied word = %d, want %d", got, tx+1)
	}
	if got := env.Oracle.Committed(0); got != tx {
		t.Fatalf("oracle committed %d transactions, want %d", got, tx)
	}
}

// heldMem is a MemPort that keeps every write until the test completes
// it, so a test can choose the order and the cycle of each ack.
type heldMem struct{ writes []heldWrite }

type heldWrite struct {
	line        uint64
	apply, done sim.Event
}

func (m *heldMem) Write(line uint64, apply, done sim.Event) {
	m.writes = append(m.writes, heldWrite{line, apply, done})
}

func (m *heldMem) WriteTracked(line uint64, apply, done sim.Event, _ *obs.FlightWrite) {
	m.Write(line, apply, done)
}

func (m *heldMem) PendingNVMWrites() int { return 0 }
func (m *heldMem) OnNVMDrain(func())     {}

// complete fires w's apply and done, as the memory does at durability.
func (w heldWrite) complete() { w.apply.Fire(); w.done.Fire() }

// TestTCacheFallbackCommitsInTxEndOrder: two overflowed commits wait for
// their TCs to drain, and the drains land in one cycle in the reverse of
// the TX_END order, each from its own event. The commit records go out
// after both, in TX_END order, and TCache drops the hold it took for
// each waiting core.
func TestTCacheFallbackCommitsInTxEndOrder(t *testing.T) {
	env := testEnv(t)
	mem := &heldMem{}
	env.Mem = mem
	m := New(TCache, env).(*tcMech)
	// Each core commits an ordinary transaction, whose entry the TCs
	// issue on the next step and keep until its ack.
	for core := 0; core < 2; core++ {
		generateTx(env, core)
		generateTx(env, core)
		m.Store(core, 1, memaddr.NVMBase+uint64(core)*4096, 1, sim.Event{})
		if m.TxEnd(core, 1, sim.Event{}) {
			t.Fatalf("core %d: ordinary commit stalled", core)
		}
	}
	env.K.Step()
	if len(mem.writes) != 2 {
		t.Fatalf("%d writes after the TCs' first step, want one drain write per core", len(mem.writes))
	}
	drain := mem.writes[:2:2]
	// The next transaction overflows on both cores; core 1 reaches
	// TX_END first. Its shadow writes land at once, so only the drains
	// hold the commits back.
	for _, core := range []int{1, 0} {
		for i := 0; i < 9; i++ {
			m.Store(core, 2, memaddr.NVMBase+uint64(core)*4096+uint64(i+1)*8, 2, sim.Event{})
		}
		if !m.TxEnd(core, 2, sim.Event{}) {
			t.Fatalf("core %d: overflowed commit did not stall", core)
		}
	}
	for _, w := range mem.writes[2:] {
		w.complete()
	}
	if h := env.K.Holds(); h != 2 || len(m.waiting) != 2 {
		t.Fatalf("Holds = %d, waiting %v with both commits waiting for a drain; want 2 and both cores", h, m.waiting)
	}
	shadow := len(mem.writes)
	env.K.Schedule(1, sim.Event{Fn: func(uint64) { drain[0].complete() }})
	env.K.Schedule(1, sim.Event{Fn: func(uint64) {
		if len(mem.writes) != shadow {
			t.Error("a commit record went out before the cycle's last drain ack")
		}
		drain[1].complete()
	}})
	env.K.Step()
	var order []uint64
	for _, w := range mem.writes[shadow:] {
		order = append(order, w.apply.Arg)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("commit records written for cores %v, want [1 0]", order)
	}
	if h := env.K.Holds(); h != 0 || len(m.waiting) != 0 {
		t.Fatalf("Holds = %d, waiting %v after both commits; want 0 and none", h, m.waiting)
	}
	for _, w := range mem.writes[shadow:] {
		w.complete()
	}
	for core := 0; core < 2; core++ {
		if got := env.Oracle.Committed(core); got != 2 {
			t.Fatalf("core %d: oracle committed %d transactions, want 2", core, got)
		}
	}
	if !m.Drained() {
		t.Fatal("mechanism not drained after both commits")
	}
}

// TestKilnForcedWritebackCommitAllocationFree pins a Kiln commit whose
// flush forces a write-back at zero heap allocations once warm: each
// round re-dirties a line the previous commit left committed in the LLC,
// so the flush's install displaces that version, which stays retained
// until its write-back lands.
func TestKilnForcedWritebackCommitAllocationFree(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	h := attach(env, m)
	for i := 0; i < 150; i++ {
		generateTx(env, 0)
	}
	accessed, resumed, want := 0, 0, 0
	onAccess := sim.Event{Fn: func(uint64) { accessed++ }}
	onResume := sim.Event{Fn: func(uint64) { resumed++ }}
	backend := env.Mem.(*memctrl.Backend)
	stored := func() bool { return accessed == want }
	done := func() bool { return resumed == want && backend.Quiescent() && len(m.retained) == 0 }
	tx := uint64(0)
	round := func() {
		tx++
		want++
		act := m.Store(0, tx, memaddr.NVMBase, tx, sim.Event{})
		env.Live.WriteWord(memaddr.NVMBase, tx)
		h.Access(0, memaddr.NVMBase, true, true, act.TxTag, act.Uncommitted, onAccess)
		env.K.RunUntil(stored, env.K.Now()+100000)
		if !m.TxEnd(0, tx, onResume) {
			t.Fatal("kiln commit did not stall")
		}
		if _, ok := env.K.RunUntil(done, env.K.Now()+100000); !ok {
			t.Fatal("kiln commit never resumed")
		}
	}
	round()
	round()
	forced := m.ForcedWritebacks
	if forced == 0 {
		t.Fatal("re-committing a committed LLC line forced no write-back")
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocs per commit with a forced write-back, want 0", allocs)
	}
	if got := m.ForcedWritebacks - forced; got != 101 {
		t.Fatalf("%d forced write-backs over 101 rounds, want one a round", got)
	}
	if got := env.Durable.ReadWord(memaddr.NVMBase); got != tx-1 {
		t.Fatalf("durable word = %d, want the previous commit's %d", got, tx-1)
	}
}

func TestRecoveryCostZeroWhenIdle(t *testing.T) {
	for _, k := range All {
		env := testEnv(t)
		m := New(k, env)
		attach(env, m)
		_, c := m.Recover(env.Durable)
		if c.ScannedItems != 0 || c.NVMWrites != 0 || c.EstCycles != 0 {
			t.Errorf("%v: fresh mechanism has recovery cost %+v", k, c)
		}
	}
}

func TestTCacheRecoveryCostCountsCommittedEntries(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	m.Store(0, 1, memaddr.NVMBase, 1, sim.Event{})
	m.Store(0, 1, memaddr.NVMBase+8, 2, sim.Event{})
	generateTx(env, 0)
	m.TxEnd(0, 1, sim.Event{})
	m.Store(0, 2, memaddr.NVMBase+16, 3, sim.Event{}) // active: scanned but not replayed
	_, c := m.Recover(env.Durable)
	if c.ScannedItems != 3 || c.NVMWrites != 2 {
		t.Fatalf("cost = %+v, want scan 3 / writes 2", c)
	}
	if c.EstCycles == 0 {
		t.Fatal("estimate is zero with pending work")
	}
}

// TestSPCommitRecordLandingIsDurableInstant drives SP's log write-backs
// by hand: a landed log entry commits nothing, and the landing of the
// commit record folds the transaction into the oracle.
func TestSPCommitRecordLandingIsDurableInstant(t *testing.T) {
	env := testEnv(t)
	m := New(SP, env).(*sp)
	var tr trace.Trace
	tr.Append(trace.TxBegin(1), trace.Store(memaddr.NVMBase, 11), trace.TxEnd(1))
	rd := m.Rewrite(0, trace.NewReader(&tr))
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
	}
	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 11})
	entry := m.logs[0].Base
	land := func(slot, a, v uint64) {
		env.Live.WriteWord(slot, a)
		env.Live.WriteWord(slot+8, v)
		m.Hooks().WritebackApply(memaddr.LineAddr(slot)).Fire()
	}

	land(entry, memaddr.NVMBase, 11)
	if env.Oracle.Committed(0) != 0 {
		t.Fatal("a log entry without its commit record counted as committed")
	}
	land(entry+16, spCommitMagic, 1)
	if env.Oracle.Committed(0) != 1 || env.Oracle.Image().ReadWord(memaddr.NVMBase) != 11 {
		t.Fatal("commit record landed but the oracle did not fold the transaction")
	}
	if got := durableLogCommits(m, env.Durable, 0); got != 1 {
		t.Fatalf("durable log holds %d commits, want 1", got)
	}
}

// TestSPSharedRecoveryCostCountsUncommittedTail drives a shared-mode SP
// log by hand: one committed transaction, then two durable entries of a
// transaction whose commit record has not landed. Recovery replays the
// committed one in global commit order and scans on to the first hole:
// the uncommitted entries count as scanned but not as written.
func TestSPSharedRecoveryCostCountsUncommittedTail(t *testing.T) {
	env := testEnv(t)
	env.Arb = txcache.NewLineArbiter(env.Cores)
	m := New(SP, env).(*sp)
	var tr trace.Trace
	tr.Append(
		trace.TxBegin(1), trace.Store(memaddr.NVMBase, 11), trace.Store(memaddr.NVMBase+8, 22), trace.TxEnd(1),
		trace.TxBegin(2), trace.Store(memaddr.NVMBase+16, 33), trace.Store(memaddr.NVMBase+24, 44), trace.TxEnd(2),
	)
	rd := m.Rewrite(0, trace.NewReader(&tr))
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
	}
	generateTx(env, 0, trace.Write{Addr: memaddr.NVMBase, Value: 11}, trace.Write{Addr: memaddr.NVMBase + 8, Value: 22})
	// Slots: tx 1's entries and commit record, then tx 2's two entries;
	// tx 2's commit record (the sixth slot) never lands.
	base := m.logs[0].Base
	for i, w := range []trace.Write{
		{Addr: memaddr.NVMBase, Value: 11}, {Addr: memaddr.NVMBase + 8, Value: 22}, {Addr: spCommitMagic, Value: 1},
		{Addr: memaddr.NVMBase + 16, Value: 33}, {Addr: memaddr.NVMBase + 24, Value: 44},
	} {
		slot := base + uint64(i)*16
		env.Live.WriteWord(slot, w.Addr)
		env.Live.WriteWord(slot+8, w.Value)
		m.Hooks().WritebackApply(memaddr.LineAddr(slot)).Fire()
	}
	if len(m.order) != 1 || env.Oracle.Committed(0) != 1 {
		t.Fatalf("commit order %v, oracle committed %d; want one landed commit record", m.order, env.Oracle.Committed(0))
	}
	out, c := m.Recover(env.Durable)
	if want := recoveryCost(5, 2); c != want {
		t.Fatalf("cost = %+v, want %+v (5 entries scanned, tx 1's 2 written)", c, want)
	}
	if out.ReadWord(memaddr.NVMBase) != 11 || out.ReadWord(memaddr.NVMBase+8) != 22 {
		t.Fatal("committed transaction not replayed")
	}
	if out.ReadWord(memaddr.NVMBase+16) == 33 || out.ReadWord(memaddr.NVMBase+24) == 44 {
		t.Fatal("uncommitted entries were replayed")
	}
}
