package trace

import (
	"errors"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
)

// TestGeneratorDrainsBatches pins the refill discipline: each step call
// emits one batch, the consumer sees every record in order, and the
// stream ends cleanly when step reports no more.
func TestGeneratorDrainsBatches(t *testing.T) {
	batch := 0
	g := NewGenerator(func(emit func(Record)) (bool, error) {
		if batch == 3 {
			return false, nil
		}
		for i := 0; i < 2; i++ {
			emit(Compute(batch*2 + i + 1))
		}
		batch++
		return true, nil
	})
	var got []int
	for {
		rec, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, rec.N)
	}
	want := []int{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %d, want %d", i, got[i], want[i])
		}
	}
	if g.Err() != nil {
		t.Errorf("clean stream has Err = %v", g.Err())
	}
	if g.Produced() != 6 {
		t.Errorf("Produced = %d, want 6", g.Produced())
	}
	// Exhausted streams stay exhausted.
	if _, ok := g.Next(); ok {
		t.Error("Next returned a record after exhaustion")
	}
}

// TestGeneratorEmptyBatchesSkipped: a step call may emit zero records
// (e.g. a quiet phase); the generator keeps refilling rather than ending
// the stream.
func TestGeneratorEmptyBatchesSkipped(t *testing.T) {
	calls := 0
	g := NewGenerator(func(emit func(Record)) (bool, error) {
		calls++
		switch calls {
		case 1, 2:
			return true, nil // nothing emitted
		case 3:
			emit(Compute(7))
			return true, nil
		default:
			return false, nil
		}
	})
	rec, ok := g.Next()
	if !ok || rec.N != 7 {
		t.Fatalf("Next = %+v, %v; want the batch-3 record", rec, ok)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("stream did not end after final batch")
	}
}

// TestGeneratorStickyStepError: a step failure ends the stream, discards
// the partial batch, and surfaces through Err on every later call.
func TestGeneratorStickyStepError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	g := NewGenerator(func(emit func(Record)) (bool, error) {
		calls++
		if calls == 2 {
			emit(Compute(99)) // partial batch must not leak out
			return false, boom
		}
		emit(Compute(1))
		return true, nil
	})
	if _, ok := g.Next(); !ok {
		t.Fatal("first record missing")
	}
	if _, ok := g.Next(); ok {
		t.Fatal("record delivered from a failed batch")
	}
	if !errors.Is(g.Err(), boom) {
		t.Fatalf("Err = %v, want %v", g.Err(), boom)
	}
	if _, ok := g.Next(); ok || !errors.Is(g.Err(), boom) {
		t.Fatal("failure is not sticky")
	}
	if calls != 2 {
		t.Errorf("step called %d times after failure, want 2", calls)
	}
}

// TestGeneratorCheckFailure: a per-record validator rejection ends the
// stream with the check's error.
func TestGeneratorCheckFailure(t *testing.T) {
	g := NewGenerator(func(emit func(Record)) (bool, error) {
		emit(Compute(1))
		emit(Compute(-1)) // invalid
		emit(Compute(2))
		return false, nil
	})
	var sv StreamValidator
	g.SetCheck(sv.Check)
	if rec, ok := g.Next(); !ok || rec.N != 1 {
		t.Fatalf("first record = %+v, %v", rec, ok)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("invalid record passed the check")
	}
	if g.Err() == nil {
		t.Fatal("check violation did not surface through Err")
	}
}

// TestStreamValidatorMatchesValidate: the validator gives the same
// verdict installed as a generator's per-record check as when driven
// directly, on both a well-formed and a malformed stream, and an open
// transaction is caught at Finish.
func TestStreamValidatorMatchesValidate(t *testing.T) {
	good := []Record{TxBegin(1), Store(memaddr.NVMBase, 5), TxEnd(1), Load(memaddr.DRAMBase)}
	bad := []Record{Store(memaddr.NVMBase, 5)} // persistent store outside tx
	for _, c := range []struct {
		name  string
		recs  []Record
		valid bool
	}{{"good", good, true}, {"bad", bad, false}} {
		var direct StreamValidator
		var directErr error
		for _, r := range c.recs {
			if directErr = direct.Check(r); directErr != nil {
				break
			}
		}
		var checked StreamValidator
		g := NewGenerator(func(emit func(Record)) (bool, error) {
			for _, r := range c.recs {
				emit(r)
			}
			return false, nil
		})
		g.SetCheck(checked.Check)
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		if (directErr == nil) != c.valid || (g.Err() == nil) != c.valid {
			t.Errorf("%s: direct err %v, generator err %v, want valid=%v", c.name, directErr, g.Err(), c.valid)
		}
	}
	var v StreamValidator
	if err := v.Check(TxBegin(1)); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if err := v.Finish(); err == nil {
		t.Fatal("open transaction not caught at Finish")
	}
}

// TestRecorderRunningCounters: over a measured window after warmup, the
// instruction/transaction counters match a Summarize of the emitted
// records, and folding every queued write set over the base image yields
// the architectural image.
func TestRecorderRunningCounters(t *testing.T) {
	r := NewRecorder(memimage.New())
	tr := collect(r)
	r.SetQuiet(true)
	r.Store(memaddr.NVMBase, 1) // warmup write
	r.SetQuiet(false)
	o := oracleFor(r, r.Image().Snapshot())

	for i := 0; i < 5; i++ {
		r.TxBegin()
		r.Store(memaddr.NVMBase+uint64(8*i), uint64(100+i))
		r.Compute(3)
		r.TxEnd()
		r.Load(memaddr.DRAMBase)
	}
	sum := Summarize(NewReader(tr))
	if got, want := r.Instructions(), sum.Instructions; got != want {
		t.Errorf("Instructions counter = %d, trace says %d", got, want)
	}
	if got, want := r.Transactions(), sum.Transactions; got != want {
		t.Errorf("Transactions counter = %d, trace says %d", got, want)
	}
	if got := pendingSets(o, 0); got != 5 {
		t.Errorf("oracle queued %d write sets, want 5", got)
	}
	commitAll(o, 0)
	if !o.Image().Equal(r.Image()) {
		t.Error("oracle image at quiescence differs from the architectural image")
	}
}

// TestRecorderSinkAndOracleQueue: every record reaches the sink, a
// recorder without an oracle keeps no write sets, and once SetOracle
// attaches one, each committed transaction is queued on it.
func TestRecorderSinkAndOracleQueue(t *testing.T) {
	r := NewRecorder(memimage.New())
	r.TxBegin()
	r.Store(memaddr.NVMBase+8, 7)
	r.TxEnd()
	o := oracleFor(r, nil)
	var sunk []Record
	r.SetSink(func(rec Record) { sunk = append(sunk, rec) })

	r.TxBegin()
	r.Store(memaddr.NVMBase, 42)
	r.TxEnd()

	if len(sunk) != 3 {
		t.Errorf("sink received %d records, want 3 (begin, store, end)", len(sunk))
	}
	if r.Transactions() != 2 {
		t.Errorf("Transactions = %d, want 2", r.Transactions())
	}
	if n := pendingSets(o, 0); n != 1 {
		t.Fatalf("oracle queued %d write sets, want only the one after SetOracle", n)
	}
	o.Commit(0)
	if got := o.Image().ReadWord(memaddr.NVMBase); got != 42 || o.Image().Len() != 1 {
		t.Errorf("oracle word = %d over %d words, want 42 over 1", got, o.Image().Len())
	}
}
