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
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	r.Store(memaddr.DRAMBase+8, 2) // volatile, not in oracle
	r.Store(memaddr.NVMBase+16, 3)
	r.TxEnd()
	c := r.Committed()
	if len(c) != 1 {
		t.Fatalf("committed %d txs, want 1", len(c))
	}
	if len(c[0].Writes) != 2 {
		t.Fatalf("oracle has %d writes, want 2 (persistent only)", len(c[0].Writes))
	}
	if c[0].Writes[0] != (Write{memaddr.NVMBase + 8, 1}) ||
		c[0].Writes[1] != (Write{memaddr.NVMBase + 16, 3}) {
		t.Fatalf("oracle writes = %+v", c[0].Writes)
	}
}

func TestRecorderAbortsNotInOracle(t *testing.T) {
	// A transaction never ended does not commit: the pending set is not
	// published.
	r := NewRecorder(memimage.New())
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	if len(r.Committed()) != 0 {
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

func TestCommittedPrefixImage(t *testing.T) {
	r := NewRecorder(memimage.New())
	a, b := memaddr.NVMBase+8, memaddr.NVMBase+16
	r.TxBegin()
	r.Store(a, 1)
	r.TxEnd()
	r.TxBegin()
	r.Store(a, 2)
	r.Store(b, 5)
	r.TxEnd()

	img0 := r.CommittedPrefixImage(nil, 0)
	if img0.ReadWord(a) != 0 {
		t.Fatal("prefix 0 should be empty")
	}
	img1 := r.CommittedPrefixImage(nil, 1)
	if img1.ReadWord(a) != 1 || img1.ReadWord(b) != 0 {
		t.Fatalf("prefix 1: a=%d b=%d, want 1,0", img1.ReadWord(a), img1.ReadWord(b))
	}
	img2 := r.CommittedPrefixImage(nil, 2)
	if img2.ReadWord(a) != 2 || img2.ReadWord(b) != 5 {
		t.Fatalf("prefix 2: a=%d b=%d, want 2,5", img2.ReadWord(a), img2.ReadWord(b))
	}
	// Overshooting n clamps.
	img9 := r.CommittedPrefixImage(nil, 9)
	if !img9.Equal(img2) {
		t.Fatal("overshot prefix differs from full prefix")
	}
}

func TestCommittedPrefixImageWithBase(t *testing.T) {
	base := memimage.New()
	base.WriteWord(memaddr.NVMBase+64, 42)
	r := NewRecorder(memimage.New())
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 1)
	r.TxEnd()
	img := r.CommittedPrefixImage(base, 1)
	if img.ReadWord(memaddr.NVMBase+64) != 42 {
		t.Fatal("base contents lost")
	}
	if base.ReadWord(memaddr.NVMBase+8) != 0 {
		t.Fatal("base image mutated")
	}
}

// Property: a recorder-produced trace always validates, and the final
// committed-prefix image agrees with the architectural image on every
// oracle address.
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
		final := r.CommittedPrefixImage(nil, len(r.Committed()))
		ok := true
		final.ForEach(func(a, v uint64) {
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
	r.SetQuiet(true)
	if !r.Quiet() {
		t.Fatal("Quiet() false after SetQuiet(true)")
	}
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
	if len(r.Committed()) != 0 {
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
