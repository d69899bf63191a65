package mechanism

import (
	"testing"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
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
		TC:      txcache.Config{SizeBytes: 8 * 64, EntryBytes: 64},
	}
}

func attach(env *Env, m Mechanism) *cache.Hierarchy {
	h := cache.New(env.K, cache.Config{
		L1Size: 1 << 10, L1Ways: 2, L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 4,
	}, env.Mem, m.Hooks(), env.Cores)
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
		m := New(k, env)
		if m.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, m.Kind())
		}
		attach(env, m)
	}
}

func TestOptimalIsTransparent(t *testing.T) {
	env := testEnv(t)
	m := New(Optimal, env)
	attach(env, m)
	if m.TxEnd(0, 1, sim.Event{}) {
		t.Fatal("optimal TxEnd requested a stall")
	}
	act := m.Store(0, 1, memaddr.NVMBase, 5)
	if act.Retry || act.TxTag != 0 {
		t.Fatalf("optimal store action = %+v, want zero", act)
	}
	if !m.Drained() {
		t.Fatal("optimal not drained")
	}
	if m.DurablyCommitted(0) != 1 {
		t.Fatalf("committed = %d, want 1", m.DurablyCommitted(0))
	}
	// Recover is the identity.
	env.Durable.WriteWord(memaddr.NVMBase, 77)
	if got := m.Recover(env.Durable).ReadWord(memaddr.NVMBase); got != 77 {
		t.Fatalf("optimal recover changed durable state: %d", got)
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
	out := m.Recover(durable)
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
	out := m.Recover(durable)
	if out.ReadWord(memaddr.NVMBase) == 5 {
		t.Fatal("entries beyond a log hole were replayed")
	}
}

func TestTCacheStoreCommitDrain(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	if act := m.Store(0, 1, memaddr.NVMBase, 42); act.Retry {
		t.Fatal("store rejected by empty TC")
	}
	if m.TxEnd(0, 1, sim.Event{}) {
		t.Fatal("non-overflow commit requested a stall")
	}
	if m.DurablyCommitted(0) != 1 {
		t.Fatal("commit not counted")
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
	m.Store(0, 1, memaddr.NVMBase, 10)
	m.TxEnd(0, 1, sim.Event{})
	m.Store(0, 2, memaddr.NVMBase+8, 20) // active, uncommitted
	// Crash now, before any drain tick.
	out := m.Recover(env.Durable)
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
		if act := m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, 1); act.Retry {
			t.Fatalf("store %d rejected before capacity", i)
		}
	}
	if act := m.Store(0, 1, memaddr.NVMBase+64, 1); !act.Retry {
		t.Fatal("store into full TC not retried")
	}
}

func TestTCacheOverflowFallback(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	// High water = 7 of 8 entries: the 8th store falls back, evicting
	// the transaction to the shadow.
	for i := 0; i < 9; i++ {
		if act := m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, uint64(100+i)); act.Retry {
			t.Fatalf("store %d stalled; fallback should absorb overflow", i)
		}
	}
	if m.FallbackTxs() != 1 {
		t.Fatalf("FallbackTxs = %d, want 1", m.FallbackTxs())
	}
	if m.tcs[0].Occupancy() != 0 {
		t.Fatalf("TC still holds %d entries of the overflowed tx", m.tcs[0].Occupancy())
	}
	resumed := false
	if !m.TxEnd(0, 1, sim.Event{Fn: func(uint64) { resumed = true }}) {
		t.Fatal("overflowed commit did not stall")
	}
	env.K.RunUntil(func() bool { return resumed }, 100000)
	if !resumed {
		t.Fatal("overflowed commit never resumed")
	}
	if m.DurablyCommitted(0) != 1 {
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
		m.Store(0, 1, memaddr.NVMBase+uint64(i)*8, uint64(100+i))
	}
	// Crash before TxEnd: nothing of tx 1 may be recovered.
	out := m.Recover(env.Durable)
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
	m.Store(1, 1, memaddr.NVMBase+128, 5) // core 1's TC
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
	act := m.Store(0, 1, memaddr.NVMBase, 9)
	if act.TxTag == 0 || !act.Uncommitted {
		t.Fatalf("kiln store action = %+v, want tagged", act)
	}
	env.Live.WriteWord(memaddr.NVMBase, 9)
	h.Access(0, memaddr.NVMBase, true, true, act.TxTag, act.Uncommitted, sim.Event{Fn: func(uint64) { done = true }})
	env.K.RunUntil(func() bool { return done }, 100000)

	resumed := false
	if !m.TxEnd(0, 1, sim.Event{Fn: func(uint64) { resumed = true }}) {
		t.Fatal("kiln commit did not stall")
	}
	env.K.RunUntil(func() bool { return resumed }, 100000)
	if m.DurablyCommitted(0) != 1 {
		t.Fatal("commit not counted")
	}
	// Recovery merges the committed dirty LLC line.
	out := m.Recover(env.Durable)
	if out.ReadWord(memaddr.NVMBase) != 9 {
		t.Fatalf("recovered = %d, want 9 (from NV-LLC)", out.ReadWord(memaddr.NVMBase))
	}
}

func TestKilnUncommittedLinesDiscardedOnRecovery(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	h := attach(env, m)
	act := m.Store(0, 1, memaddr.NVMBase, 9)
	env.Live.WriteWord(memaddr.NVMBase, 9)
	done := false
	h.Access(0, memaddr.NVMBase, true, true, act.TxTag, act.Uncommitted, sim.Event{Fn: func(uint64) { done = true }})
	env.K.RunUntil(func() bool { return done }, 100000)
	// No commit: even if the line were evicted into the LLC it stays
	// uncommitted. Force it there via FlushTx-free eviction is complex;
	// instead verify Recover of the durable image alone.
	out := m.Recover(env.Durable)
	if out.ReadWord(memaddr.NVMBase) == 9 {
		t.Fatal("uncommitted value recovered")
	}
}

func TestKilnTagNamespacesCores(t *testing.T) {
	env := testEnv(t)
	m := New(Kiln, env).(*kiln)
	a := m.Store(0, 7, memaddr.NVMBase, 1).TxTag
	b := m.Store(1, 7, memaddr.NVMBase+8, 1).TxTag
	if a == b {
		t.Fatal("same tx id on different cores produced identical tags")
	}
}

func TestSPPcommitStallsUntilWriteQueueDrains(t *testing.T) {
	env := testEnv(t)
	m := New(SP, env)
	attach(env, m)
	// With writes pending at the NVM controller, TX_END stalls until
	// the queue drains (pcommit).
	env.Mem.Write(memaddr.NVMBase, sim.Event{}, sim.Event{})
	resumed := false
	if !m.TxEnd(0, 1, sim.Event{Fn: func(uint64) { resumed = true }}) {
		t.Fatal("TxEnd with pending NVM writes did not stall")
	}
	env.K.RunUntil(func() bool { return resumed }, 100000)
	if !resumed {
		t.Fatal("pcommit never resumed")
	}
	// With an idle queue, TX_END is instant.
	if m.TxEnd(0, 2, sim.Event{}) {
		t.Fatal("TxEnd with idle NVM queue stalled")
	}
}

func TestRecoveryCostZeroWhenIdle(t *testing.T) {
	for _, k := range All {
		env := testEnv(t)
		m := New(k, env)
		attach(env, m)
		c := m.RecoveryCost()
		if c.ScannedItems != 0 || c.NVMWrites != 0 || c.EstCycles != 0 {
			t.Errorf("%v: fresh mechanism has recovery cost %+v", k, c)
		}
	}
}

func TestTCacheRecoveryCostCountsCommittedEntries(t *testing.T) {
	env := testEnv(t)
	m := New(TCache, env).(*tcMech)
	attach(env, m)
	m.Store(0, 1, memaddr.NVMBase, 1)
	m.Store(0, 1, memaddr.NVMBase+8, 2)
	m.TxEnd(0, 1, sim.Event{})
	m.Store(0, 2, memaddr.NVMBase+16, 3) // active: scanned but not replayed
	c := m.RecoveryCost()
	if c.ScannedItems != 3 || c.NVMWrites != 2 {
		t.Fatalf("cost = %+v, want scan 3 / writes 2", c)
	}
	if c.EstCycles == 0 {
		t.Fatal("estimate is zero with pending work")
	}
}
