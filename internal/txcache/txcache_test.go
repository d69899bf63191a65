package txcache

import (
	"math"
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
)

// fakeNVM is a scriptable Port that can hold acknowledgments.
type fakeNVM struct {
	k      *sim.Kernel
	lat    uint64
	hold   bool
	held   []sim.Event // apply, onDurable pairs
	writes []uint64
}

func (m *fakeNVM) Write(lineAddr uint64, apply, onDurable sim.Event) {
	m.writes = append(m.writes, lineAddr)
	if m.hold {
		m.held = append(m.held, apply, onDurable)
		return
	}
	// Back-to-back schedules fire back to back: apply, then onDurable.
	m.k.Schedule(m.lat, apply)
	m.k.Schedule(m.lat, onDurable)
}

func (m *fakeNVM) release() {
	for _, e := range m.held {
		e.Fire()
	}
	m.held = nil
}

func newTC(t *testing.T, entries int) (*sim.Kernel, *TxCache, *fakeNVM, *memimage.Image) {
	t.Helper()
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 152}
	img := memimage.New()
	cfg := Config{SizeBytes: entries * 64, EntryBytes: 64}
	tc := New(k, cfg, nvm, func(addr, value uint64) { img.WriteWord(addr, value) })
	return k, tc, nvm, img
}

func nvmAddr(i int) uint64 { return memaddr.NVMBase + uint64(i)*8 }

func TestConfigDefaultsMatchTable2(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.SizeBytes != 4<<10 || c.EntryBytes != 64 || c.Latency != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Entries() != 64 {
		t.Fatalf("Entries = %d, want 64 (4KB / 64B, §4.4)", c.Entries())
	}
}

func TestTinyConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-entry TC did not panic")
		}
	}()
	New(sim.NewKernel(), Config{SizeBytes: 64, EntryBytes: 64}, &fakeNVM{}, nil)
}

func TestWriteBuffersWithoutDraining(t *testing.T) {
	k, tc, nvm, _ := newTC(t, 8)
	if r := tc.Write(1, nvmAddr(0), 10); r != Accepted {
		t.Fatalf("Write = %v, want Accepted", r)
	}
	for i := 0; i < 20; i++ {
		k.Step()
	}
	if len(nvm.writes) != 0 {
		t.Fatal("active (uncommitted) entry drained to NVM")
	}
	if tc.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", tc.Occupancy())
	}
}

func TestCommitDrainsFIFOAndAcksFree(t *testing.T) {
	k, tc, nvm, img := newTC(t, 8)
	tc.Write(1, nvmAddr(0), 10)
	tc.Write(1, nvmAddr(1), 11)
	tc.Write(1, nvmAddr(2), 12)
	tc.Commit(1)
	k.RunUntil(func() bool { return tc.Drained() }, 10000)
	if !tc.Drained() {
		t.Fatal("TC did not drain after commit")
	}
	if len(nvm.writes) != 3 {
		t.Fatalf("NVM saw %d writes, want 3", len(nvm.writes))
	}
	// FIFO issue order.
	for i, w := range nvm.writes {
		if w != memaddr.LineAddr(nvmAddr(i)) {
			t.Fatalf("write %d to %#x, want FIFO order", i, w)
		}
	}
	for i, want := range []uint64{10, 11, 12} {
		if got := img.ReadWord(nvmAddr(i)); got != want {
			t.Fatalf("durable word %d = %d, want %d", i, got, want)
		}
	}
	s := tc.Stats()
	if s.Writes != 3 || s.Commits != 1 || s.Issued != 3 || s.Acked != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestActiveEntryBlocksYoungerCommitted(t *testing.T) {
	// FIFO semantics: entries drain strictly in insertion order, so a
	// younger committed transaction cannot pass an older active one.
	// (With one transaction in flight per core this situation needs a
	// manufactured interleave.)
	k, tc, nvm, _ := newTC(t, 8)
	tc.Write(1, nvmAddr(0), 10) // stays active
	tc.Write(2, nvmAddr(1), 20)
	tc.Commit(2)
	for i := 0; i < 400; i++ {
		k.Step()
	}
	if len(nvm.writes) != 0 {
		t.Fatal("younger committed entry drained past an older active entry")
	}
	tc.Commit(1)
	k.RunUntil(func() bool { return tc.Drained() }, 10000)
	if len(nvm.writes) != 2 || nvm.writes[0] != memaddr.LineAddr(nvmAddr(0)) {
		t.Fatalf("drain order %v violates FIFO", nvm.writes)
	}
}

func TestFullRejectsAtCapacity(t *testing.T) {
	_, tc, _, _ := newTC(t, 4)
	// High water = 3 (0.9*4 = 3.6 -> 3). Capacity rejects come first
	// via Fallback at 3; disable fallback to reach Full.
	tc2 := tc
	_ = tc2
	for i := 0; i < 3; i++ {
		if r := tc.Write(1, nvmAddr(i), 1); r != Accepted {
			t.Fatalf("write %d = %v, want Accepted", i, r)
		}
	}
	if r := tc.Write(1, nvmAddr(3), 1); r != Fallback {
		t.Fatalf("write at high water = %v, want Fallback", r)
	}
	if tc.Stats().FallbackWrites != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestFullWhenEveryEntryLive(t *testing.T) {
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 100}
	// HighWaterFrac 1.0 disables the fallback so Full is reachable.
	tc := New(k, Config{SizeBytes: 4 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm, nil)
	for i := 0; i < 4; i++ {
		if r := tc.Write(1, nvmAddr(i), 1); r != Accepted {
			t.Fatalf("write %d = %v", i, r)
		}
	}
	if r := tc.Write(1, nvmAddr(4), 1); r != Full {
		t.Fatalf("write into full TC = %v, want Full", r)
	}
	if tc.Stats().FullRejects != 1 {
		t.Fatal("full reject not counted")
	}
}

func TestProbeFindsNewestFirst(t *testing.T) {
	_, tc, _, _ := newTC(t, 8)
	if tc.Probe(nvmAddr(0)) {
		t.Fatal("probe hit in empty TC")
	}
	tc.Write(1, nvmAddr(0), 10)
	if !tc.Probe(nvmAddr(0)) {
		t.Fatal("probe missed a live entry")
	}
	// Probe is line-granular: a different word in the same line hits.
	if !tc.Probe(nvmAddr(3)) {
		t.Fatal("probe missed same-line word")
	}
	if tc.Probe(memaddr.NVMBase + 4096) {
		t.Fatal("probe hit an absent line")
	}
	s := tc.Stats()
	if s.Probes != 4 || s.ProbeHits != 2 {
		t.Fatalf("probe stats %d/%d, want 4/2", s.Probes, s.ProbeHits)
	}
}

func TestHeadHoleStallsDespiteFreeSpace(t *testing.T) {
	// Out-of-order acks leave holes the FIFO cannot reuse: if the head
	// slot is still live, writes stall even though count < capacity.
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 1, hold: true}
	tc := New(k, Config{SizeBytes: 4 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm, nil)
	for i := 0; i < 4; i++ {
		tc.Write(1, nvmAddr(i), uint64(i))
	}
	tc.Commit(1)
	for i := 0; i < 10; i++ {
		k.Step() // issue all four writes (1/cycle), held unacked
	}
	if tc.Stats().Issued != 4 {
		t.Fatalf("issued %d, want 4", tc.Stats().Issued)
	}
	// Ack only the SECOND entry: a hole at index 1; head still points
	// at index 0's slot which remains live.
	tc.Ack(nvmAddr(1))
	if tc.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", tc.Occupancy())
	}
	if r := tc.Write(2, nvmAddr(9), 9); r != Full {
		t.Fatalf("write into holey ring = %v, want Full (head not available)", r)
	}
	// Acking the head entry frees the slot.
	tc.Ack(nvmAddr(0))
	if r := tc.Write(2, nvmAddr(9), 9); r != Accepted {
		t.Fatalf("write after head freed = %v, want Accepted", r)
	}
}

func TestAckMatchesNearestTailForDuplicateAddresses(t *testing.T) {
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 1, hold: true}
	tc := New(k, Config{SizeBytes: 8 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm, nil)
	tc.Write(1, nvmAddr(0), 1)
	tc.Write(1, nvmAddr(0), 2) // same word, younger value
	tc.Commit(1)
	for i := 0; i < 5; i++ {
		k.Step()
	}
	tc.Ack(nvmAddr(0))
	// The older entry (nearest tail) must have been freed; the younger
	// must survive.
	contents := tc.Contents()
	if len(contents) != 1 || contents[0].Value != 2 {
		t.Fatalf("contents after first ack = %+v, want the younger entry", contents)
	}
}

func TestContentsInFIFOOrder(t *testing.T) {
	_, tc, _, _ := newTC(t, 8)
	for i := 0; i < 4; i++ {
		tc.Write(1, nvmAddr(i), uint64(100+i))
	}
	c := tc.Contents()
	if len(c) != 4 {
		t.Fatalf("contents = %d entries, want 4", len(c))
	}
	for i, e := range c {
		if e.Value != uint64(100+i) {
			t.Fatalf("contents[%d].Value = %d, want %d (FIFO order)", i, e.Value, 100+i)
		}
		if e.State != Active {
			t.Fatalf("contents[%d].State = %v, want active", i, e.State)
		}
	}
}

func TestDurableValuesAreWordPrecise(t *testing.T) {
	// Two stores to different words of the same line both reach the
	// durable image with their own values.
	k, tc, _, img := newTC(t, 8)
	tc.Write(1, nvmAddr(0), 111)
	tc.Write(1, nvmAddr(1), 222)
	tc.Commit(1)
	k.RunUntil(func() bool { return tc.Drained() }, 10000)
	if img.ReadWord(nvmAddr(0)) != 111 || img.ReadWord(nvmAddr(1)) != 222 {
		t.Fatalf("durable words = %d,%d, want 111,222",
			img.ReadWord(nvmAddr(0)), img.ReadWord(nvmAddr(1)))
	}
}

func TestStateStrings(t *testing.T) {
	if Available.String() != "available" || Active.String() != "active" || Committed.String() != "committed" {
		t.Fatal("state names wrong")
	}
}

func TestWrapAroundReuse(t *testing.T) {
	// Fill, drain, and refill several times over to exercise ring
	// wrap-around.
	k, tc, _, img := newTC(t, 4)
	for round := 0; round < 10; round++ {
		id := uint64(round + 1)
		for i := 0; i < 2; i++ {
			if r := tc.Write(id, nvmAddr(round*2+i), id*100+uint64(i)); r != Accepted {
				t.Fatalf("round %d write %d = %v", round, i, r)
			}
		}
		tc.Commit(id)
		k.RunUntil(func() bool { return tc.Drained() }, 10000)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 2; i++ {
			want := uint64(round+1)*100 + uint64(i)
			if got := img.ReadWord(nvmAddr(round*2 + i)); got != want {
				t.Fatalf("durable word %d = %d, want %d", round*2+i, got, want)
			}
		}
	}
}

// Property: for arbitrary accepted write/commit sequences followed by a
// full drain, the durable image equals the last committed value per word,
// and the TC always drains completely.
func TestQuickDrainMatchesLastCommittedValue(t *testing.T) {
	type op struct {
		Word  uint8
		Value uint64
	}
	f := func(txs [][]op) bool {
		if len(txs) > 20 {
			txs = txs[:20]
		}
		k := sim.NewKernel()
		nvm := &fakeNVM{k: k, lat: 7}
		img := memimage.New()
		tc := New(k, Config{SizeBytes: 64 * 64, EntryBytes: 64}, nvm,
			func(a, v uint64) { img.WriteWord(a, v) })
		want := map[uint64]uint64{}
		id := uint64(1)
		for _, tx := range txs {
			if len(tx) > 8 {
				tx = tx[:8]
			}
			wrote := false
			for _, o := range tx {
				addr := nvmAddr(int(o.Word % 32))
				if tc.Write(id, addr, o.Value) == Accepted {
					want[addr] = o.Value
					wrote = true
				}
			}
			if wrote {
				tc.Commit(id)
			}
			id++
			// Let the ring drain between transactions sometimes.
			if id%3 == 0 {
				k.RunUntil(func() bool { return tc.Drained() }, 100000)
			}
		}
		k.RunUntil(func() bool { return tc.Drained() }, 1000000)
		if !tc.Drained() {
			return false
		}
		for a, v := range want {
			if img.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictTxRemovesOnlyThatTransaction(t *testing.T) {
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 1, hold: true}
	tc := New(k, Config{SizeBytes: 8 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm, nil)
	tc.Write(1, nvmAddr(0), 10)
	tc.Write(1, nvmAddr(1), 11)
	tc.Commit(1) // older committed tx stays
	tc.Write(2, nvmAddr(2), 20)
	tc.Write(2, nvmAddr(3), 21)

	evicted := tc.EvictTx(2)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d entries, want 2", len(evicted))
	}
	for i, e := range evicted {
		if e.TxID != 2 || e.Value != uint64(20+i) {
			t.Fatalf("evicted[%d] = %+v, want tx 2 in FIFO order", i, e)
		}
	}
	if tc.Occupancy() != 2 {
		t.Fatalf("occupancy = %d after evict, want 2 (tx 1 remains)", tc.Occupancy())
	}
	for _, e := range tc.Contents() {
		if e.TxID != 1 {
			t.Fatalf("entry of tx %d survived EvictTx(2)", e.TxID)
		}
	}
	// The freed space is writable again once at the head.
	if r := tc.Write(3, nvmAddr(9), 9); r != Accepted {
		t.Fatalf("write after evict = %v, want Accepted", r)
	}
}

func TestEvictTxEmptiesRingCompletely(t *testing.T) {
	k := sim.NewKernel()
	tc := New(k, Config{SizeBytes: 4 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, &fakeNVM{k: k, lat: 1}, nil)
	for i := 0; i < 3; i++ {
		tc.Write(7, nvmAddr(i), uint64(i))
	}
	if got := len(tc.EvictTx(7)); got != 3 {
		t.Fatalf("evicted %d, want 3", got)
	}
	if !tc.Drained() {
		t.Fatal("ring not drained after evicting its only transaction")
	}
	// Full capacity is available again.
	for i := 0; i < 3; i++ {
		if r := tc.Write(8, nvmAddr(10+i), 1); r != Accepted {
			t.Fatalf("post-evict write %d = %v", i, r)
		}
	}
}

func TestEvictTxDoesNotTouchCommittedEntries(t *testing.T) {
	// EvictTx moves only ACTIVE entries: committed ones are already
	// queued for the NVM and must drain normally.
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 3}
	img := memimage.New()
	tc := New(k, Config{SizeBytes: 8 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm,
		func(a, v uint64) { img.WriteWord(a, v) })
	tc.Write(1, nvmAddr(0), 10)
	tc.Commit(1)
	if got := len(tc.EvictTx(1)); got != 0 {
		t.Fatalf("EvictTx removed %d committed entries", got)
	}
	k.RunUntil(tc.Drained, 10000)
	if img.ReadWord(nvmAddr(0)) != 10 {
		t.Fatal("committed entry lost after EvictTx of same id")
	}
}

// TestNilProbePathAllocatesNothing is the zero-overhead-when-disabled
// regression guard at the component level: with no probe attached (the
// default), the hot Write/Probe/Commit sequence performs no heap
// allocations — every probe site is an untaken nil check.
func TestNilProbePathAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 1, hold: true} // hold acks: no drain closures
	tc := New(k, Config{SizeBytes: 64 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, nvm, nil)
	var tx uint64
	allocs := testing.AllocsPerRun(100, func() {
		tx++
		tc.Write(tx, nvmAddr(0), tx)
		tc.Write(tx, nvmAddr(1), tx)
		tc.Probe(memaddr.LineAddr(nvmAddr(0)))
		tc.Probe(memaddr.LineAddr(nvmAddr(7)))
		tc.Commit(tx)
		// Reclaim without draining so the ring never fills: evict is
		// the test hook; the measured path is Write/Probe/Commit.
		tc.head, tc.tail, tc.count, tc.issue, tc.unissued = 0, 0, 0, 0, 0
		tc.entries[0] = Entry{}
		tc.entries[1] = Entry{}
	})
	if allocs != 0 {
		t.Fatalf("nil-probe Write/Probe/Commit allocated %.1f times per run, want 0", allocs)
	}
}

// TestOpenDrainBurstFlushedAtCollection: a drain burst still in progress
// when the probe is collected must surface as a KTCDrainOpen span ending
// at the collection cycle (previously it silently vanished).
func TestOpenDrainBurstFlushedAtCollection(t *testing.T) {
	k := sim.NewKernel()
	nvm := &fakeNVM{k: k, lat: 152}
	p := obs.NewProbe(64)
	tc := New(k, Config{SizeBytes: 8 * 64, EntryBytes: 64}, nvm, nil)
	tc.SetProbe(p, 3)
	tc.Write(1, nvmAddr(0), 10)
	tc.Write(1, nvmAddr(1), 11)
	tc.Write(1, nvmAddr(2), 12)
	tc.Commit(1)
	// One tick issues one entry (IssuePerCycle default 1): the burst is
	// open with two entries still unissued.
	k.Step()
	if tc.Idle() {
		t.Fatal("TC mid-burst reports idle")
	}
	p.FlushOpenSpans(k.Now())
	if n := p.CountKind(obs.KTCDrainOpen); n != 1 {
		t.Fatalf("flushed %d open-burst spans, want 1", n)
	}
	if p.OpenSpansFlushed() != 1 {
		t.Fatalf("OpenSpansFlushed = %d, want 1", p.OpenSpansFlushed())
	}
	ev := findKind(t, p, obs.KTCDrainOpen)
	if ev.End != k.Now() || ev.Arg != 1 || ev.Core != 3 {
		t.Fatalf("open span = %+v, want End=%d Arg=1 Core=3", ev, k.Now())
	}
	// A completed burst, by contrast, closes as a normal KTCDrain span
	// and must not re-flush.
	k.RunUntil(tc.Drained, 10000)
	k.Step() // one more tick for the burst-close check
	p.FlushOpenSpans(k.Now())
	if p.OpenSpansFlushed() != 1 {
		t.Fatalf("closed burst re-flushed: OpenSpansFlushed = %d, want 1", p.OpenSpansFlushed())
	}
	if p.CountKind(obs.KTCDrain) != 1 {
		t.Fatalf("completed burst spans = %d, want 1", p.CountKind(obs.KTCDrain))
	}
}

func findKind(t *testing.T, p *obs.Probe, k obs.Kind) obs.Event {
	t.Helper()
	for _, e := range p.Events() {
		if e.Kind == k {
			return e
		}
	}
	t.Fatalf("no %v event recorded", k)
	return obs.Event{}
}

// TestConfigValidate covers the misconfigurations Validate must reject
// and the shapes it must accept.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaulted zero config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: -64, EntryBytes: 64, HighWaterFrac: 0.9, IssuePerCycle: 1},
		{SizeBytes: 4 << 10, EntryBytes: 100, HighWaterFrac: 0.9, IssuePerCycle: 1}, // 100 does not divide 4096
		{SizeBytes: 64, EntryBytes: 64, HighWaterFrac: 0.9, IssuePerCycle: 1},       // 1 entry
		{SizeBytes: 4 << 10, EntryBytes: 64, HighWaterFrac: 1.5, IssuePerCycle: 1},
		{SizeBytes: 4 << 10, EntryBytes: 64, HighWaterFrac: -0.1, IssuePerCycle: 1},
		{SizeBytes: 4 << 10, EntryBytes: 64, HighWaterFrac: math.NaN(), IssuePerCycle: 1},
		{SizeBytes: 4 << 10, EntryBytes: 64, HighWaterFrac: 0.9, IssuePerCycle: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
}

// stubPort is an allocation-free Port: fixed latency, no history.
type stubPort struct{ k *sim.Kernel }

func (p stubPort) Write(lineAddr uint64, apply, onDurable sim.Event) {
	p.k.Schedule(152, apply)
	p.k.Schedule(152, onDurable)
}

// TestDrainAllocationFree pins the TC's durability round trip (write,
// commit, drain issue, durable apply, acknowledgment) at zero heap
// allocations once the drain slot table has grown.
func TestDrainAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	img := memimage.New()
	tc := New(k, Config{SizeBytes: 8 * 64, EntryBytes: 64, HighWaterFrac: 1.0}, stubPort{k: k},
		func(addr, value uint64) { img.WriteWord(addr, value) })
	var tx uint64
	roundTrip := func() {
		tx++
		for i := 0; i < 3; i++ {
			if r := tc.Write(tx, nvmAddr(i), tx); r != Accepted {
				t.Fatalf("write %d: %v", i, r)
			}
		}
		tc.Commit(tx)
		if _, ok := k.RunUntil(tc.Drained, k.Now()+10_000); !ok {
			t.Fatal("TC did not drain")
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("write/commit/drain/ack allocated %.1f times per transaction, want 0", allocs)
	}
	if got := tc.Stats().Acked; got != 3*101+3 {
		t.Fatalf("acked %d entries, want %d", got, 3*101+3)
	}
	if img.ReadWord(nvmAddr(2)) != tx {
		t.Fatalf("durable word = %d, want %d", img.ReadWord(nvmAddr(2)), tx)
	}
}
