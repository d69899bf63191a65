package trace

import (
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
)

// collect points r's sink at a fresh trace and returns it.
func collect(r *Recorder) *Trace {
	tr := &Trace{}
	r.SetSink(func(rec Record) { tr.Append(rec) })
	return tr
}

// oracleFor returns a one-core oracle starting from base (an empty image
// when nil).
func oracleFor(base *memimage.Image) *Oracle {
	if base == nil {
		base = memimage.New()
	}
	return NewOracle(1, base)
}

// pull drains recs through a generator attached to o as core's, so each
// transaction's write set is queued as a core pulling the stream queues
// it.
func pull(o *Oracle, core int, recs []Record) {
	g := NewGenerator(func(emit func(Record)) (bool, error) {
		for _, r := range recs {
			emit(r)
		}
		return false, nil
	})
	g.SetOracle(o, core)
	for _, ok := g.Next(); ok; _, ok = g.Next() {
	}
}

// pendingSets returns how many of core's queued write sets are not yet
// folded.
func pendingSets(o *Oracle, core int) int {
	q := &o.cores[core]
	return len(q.ends) - q.head
}

// commitAll folds every write set core has queued.
func commitAll(o *Oracle, core int) {
	for pendingSets(o, core) > 0 {
		o.Commit(core)
	}
}

func TestRecorderLoadStoreThroughImage(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	a := memaddr.DRAMBase + 64
	r.Store(a, 99)
	if got := r.Load(a); got != 99 {
		t.Fatalf("Load = %d, want 99", got)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace has %d records, want 2", tr.Len())
	}
	if tr.Records[0].Kind != KindStore || tr.Records[1].Kind != KindLoad {
		t.Fatalf("record kinds = %v,%v", tr.Records[0].Kind, tr.Records[1].Kind)
	}
}

func TestRecorderTransactionIDsIncrease(t *testing.T) {
	r := NewRecorder(memimage.New())
	id1 := r.TxBegin()
	r.TxEnd()
	id2 := r.TxBegin()
	r.TxEnd()
	if id2 <= id1 {
		t.Fatalf("tx ids %d then %d, want strictly increasing", id1, id2)
	}
}

func TestRecorderOracleTracksPersistentWritesOnly(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	o := oracleFor(nil)
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	r.Store(memaddr.DRAMBase+8, 2) // volatile, not in oracle
	r.Store(memaddr.NVMBase+16, 3)
	r.TxEnd()
	pull(o, 0, tr.Records)
	if n := pendingSets(o, 0); n != 1 {
		t.Fatalf("queued %d txs, want 1", n)
	}
	want := []Write{{memaddr.NVMBase + 8, 1}, {memaddr.NVMBase + 16, 3}}
	q := o.cores[0].writes
	if len(q) != 2 || q[0] != want[0] || q[1] != want[1] {
		t.Fatalf("oracle writes = %+v, want %+v (persistent only)", q, want)
	}
	o.Commit(0)
	img := o.Image()
	if img.Len() != 2 || img.ReadWord(memaddr.DRAMBase+8) != 0 {
		t.Fatalf("oracle image holds %d words, want the 2 persistent ones", img.Len())
	}
}

func TestRecorderAbortsNotInOracle(t *testing.T) {
	// A transaction never ended does not commit: the pending set is not
	// published.
	r := NewRecorder(memimage.New())
	tr := collect(r)
	o := oracleFor(nil)
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	pull(o, 0, tr.Records)
	if pendingSets(o, 0) != 0 {
		t.Fatal("open transaction appeared in oracle")
	}
}

func TestRecorderNestedTxPanics(t *testing.T) {
	r := NewRecorder(memimage.New())
	r.TxBegin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested TxBegin did not panic")
		}
	}()
	r.TxBegin()
}

func TestRecorderTxEndOutsidePanics(t *testing.T) {
	r := NewRecorder(memimage.New())
	defer func() {
		if recover() == nil {
			t.Fatal("TxEnd outside tx did not panic")
		}
	}()
	r.TxEnd()
}

func TestComputeZeroIsDropped(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	r.Compute(0)
	r.Compute(-3)
	if tr.Len() != 0 {
		t.Fatal("non-positive compute batches were recorded")
	}
}

// TestCommittedPrefixImage: after each Commit the oracle image is the
// fold of exactly the committed prefix of pulled write sets, however
// far the pulls ran ahead.
func TestCommittedPrefixImage(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	o := oracleFor(nil)
	a, b := memaddr.NVMBase+8, memaddr.NVMBase+16
	r.TxBegin()
	r.Store(a, 1)
	r.TxEnd()
	r.TxBegin()
	r.Store(a, 2)
	r.Store(b, 5)
	r.TxEnd()
	pull(o, 0, tr.Records)

	if o.Image().Len() != 0 || o.Committed(0) != 0 {
		t.Fatal("prefix 0 should be empty")
	}
	o.Commit(0)
	if img := o.Image(); img.ReadWord(a) != 1 || img.ReadWord(b) != 0 {
		t.Fatalf("prefix 1: a=%d b=%d, want 1,0", img.ReadWord(a), img.ReadWord(b))
	}
	o.Commit(0)
	if img := o.Image(); img.ReadWord(a) != 2 || img.ReadWord(b) != 5 {
		t.Fatalf("prefix 2: a=%d b=%d, want 2,5", img.ReadWord(a), img.ReadWord(b))
	}
	if o.Committed(0) != 2 || o.PeakPending(0) != 2 {
		t.Fatalf("committed %d, peak pending %d, want 2 and 2", o.Committed(0), o.PeakPending(0))
	}
	// Committing past what was pulled is a broken machine.
	defer func() {
		if recover() == nil {
			t.Fatal("commit with nothing queued did not panic")
		}
	}()
	o.Commit(0)
}

// TestCommittedPrefixImageWithBase: the oracle starts from the base
// image and folds committed write sets over it.
func TestCommittedPrefixImageWithBase(t *testing.T) {
	base := memimage.New()
	base.WriteWord(memaddr.NVMBase+64, 42)
	base.WriteWord(memaddr.NVMBase+8, 7)
	r := NewRecorder(memimage.New())
	tr := collect(r)
	o := oracleFor(base)
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	r.TxEnd()
	pull(o, 0, tr.Records)
	if o.Image().ReadWord(memaddr.NVMBase+8) != 7 {
		t.Fatal("a pulled, uncommitted write reached the image")
	}
	o.Commit(0)
	if o.Image().ReadWord(memaddr.NVMBase+64) != 42 {
		t.Fatal("base contents lost")
	}
	if o.Image().ReadWord(memaddr.NVMBase+8) != 1 {
		t.Fatal("committed write not folded over the base")
	}
}

// TestOracleFIFOAcrossCores interleaves pulls and commits on two
// cores, so each FIFO compacts while sets are still queued: every
// commit must fold its own core's oldest set, and cross-core writes to
// one word land in commit order.
func TestOracleFIFOAcrossCores(t *testing.T) {
	o := NewOracle(2, memimage.New())
	recs := [2]*Recorder{NewRecorder(memimage.New()), NewRecorder(memimage.New())}
	shared := memaddr.NVMBase
	gen := func(c int, v uint64) {
		tr := collect(recs[c])
		recs[c].TxBegin()
		recs[c].Store(shared, v)
		for i := uint64(0); i < v%3; i++ {
			recs[c].Store(memaddr.NVMBase+uint64(c+1)*4096+8*i, v)
		}
		recs[c].TxEnd()
		pull(o, c, tr.Records)
	}
	// Core c's k-th transaction writes 100*(c+1)+k.
	next := [2]uint64{}
	for k := 0; k < 3; k++ {
		for c := range recs {
			gen(c, 100*uint64(c+1)+next[c])
			next[c]++
		}
	}
	done := [2]uint64{}
	for _, c := range []int{1, 0, 0, 1, 0, 1, 1, 0, 1, 0} {
		o.Commit(c)
		if want := 100*uint64(c+1) + done[c]; o.Image().ReadWord(shared) != want {
			t.Fatalf("after core %d's commit %d the shared word is %d, want %d",
				c, done[c], o.Image().ReadWord(shared), want)
		}
		done[c]++
		if next[c]-done[c] < 2 {
			gen(c, 100*uint64(c+1)+next[c])
			next[c]++
		}
	}
	for c := range recs {
		if o.Committed(c) != done[c] {
			t.Errorf("core %d: Committed = %d, want %d", c, o.Committed(c), done[c])
		}
		if o.PeakPending(c) != 3 {
			t.Errorf("core %d: peak pending %d, want 3", c, o.PeakPending(c))
		}
	}
}

// Property: a recorder-produced trace always validates, and with every
// queued write set folded the oracle image agrees with the architectural
// image on every oracle address.
func TestQuickRecorderTracesValidate(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Val  uint64
		InTx bool
		Vol  bool
		Comp uint8
	}) bool {
		r := NewRecorder(memimage.New())
		tr := collect(r)
		o := oracleFor(nil)
		for _, op := range ops {
			addr := memaddr.NVMBase + uint64(op.Off)*8
			if op.Vol {
				addr = memaddr.DRAMBase + uint64(op.Off)*8
			}
			if op.InTx && !op.Vol {
				r.TxBegin()
				r.Store(addr, op.Val)
				r.TxEnd()
			} else if op.Vol {
				r.Store(addr, op.Val)
			} else {
				r.Load(addr)
			}
			r.Compute(int(op.Comp%7) + 1)
		}
		var v StreamValidator
		for _, rec := range tr.Records {
			if v.Check(rec) != nil {
				return false
			}
		}
		if v.Finish() != nil {
			return false
		}
		pull(o, 0, tr.Records)
		commitAll(o, 0)
		ok := true
		o.Image().ForEach(func(a, v uint64) {
			if r.Image().ReadWord(a) != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuietModeUpdatesImageOnly(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	o := oracleFor(nil)
	r.SetQuiet(true)
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 7)
	r.TxEnd()
	r.Compute(10)
	if got := r.Load(memaddr.NVMBase + 8); got != 7 {
		t.Fatalf("quiet Load = %d, want 7", got)
	}
	r.SetQuiet(false)
	if tr.Len() != 0 {
		t.Fatalf("quiet mode recorded %d records", tr.Len())
	}
	pull(o, 0, tr.Records)
	if pendingSets(o, 0) != 0 {
		t.Fatal("quiet transaction reached the oracle")
	}
	// Tx ids keep advancing across quiet transactions so measured-window
	// ids never collide with warmup ids.
	id := r.TxBegin()
	r.TxEnd()
	if id < 2 {
		t.Fatalf("post-warmup tx id = %d, want >= 2", id)
	}
}
