package trace

import (
	"errors"
	"testing"
	"unsafe"

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
		got = append(got, int(rec.N))
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
	o := oracleFor(r.Image().Snapshot())

	for i := 0; i < 5; i++ {
		r.TxBegin()
		r.Store(memaddr.NVMBase+uint64(8*i), uint64(100+i))
		r.Compute(3)
		r.TxEnd()
		r.Load(memaddr.DRAMBase)
	}
	pull(o, 0, tr.Records)
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

// TestGeneratorSinkAndOracleQueue: every record the recorder emits
// reaches the consumer through the generator's chunk, a generator
// without an oracle keeps no write sets, and once SetOracle attaches one,
// each transaction's set is queued as its TX_END is pulled, not before.
func TestGeneratorSinkAndOracleQueue(t *testing.T) {
	r := NewRecorder(memimage.New())
	gen := func(addr, v uint64) *Generator {
		return NewGenerator(func(emit func(Record)) (bool, error) {
			r.SetSink(emit)
			r.TxBegin()
			r.Store(addr, v)
			r.TxEnd()
			return false, nil
		})
	}
	o := oracleFor(nil)
	var sunk []Record
	for g := gen(memaddr.NVMBase+8, 7); ; {
		rec, ok := g.Next()
		if !ok {
			break
		}
		sunk = append(sunk, rec)
	}
	if len(sunk) != 3 {
		t.Errorf("consumer received %d records, want 3 (begin, store, end)", len(sunk))
	}

	g := gen(memaddr.NVMBase, 42)
	g.SetOracle(o, 0)
	for i := 0; i < 2; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatalf("record %d missing", i)
		}
	}
	if n := pendingSets(o, 0); n != 0 {
		t.Fatalf("oracle queued %d write sets before the TX_END was pulled", n)
	}
	if rec, ok := g.Next(); !ok || rec.Kind != KindTxEnd {
		t.Fatalf("third record = %+v, %v; want the TX_END", rec, ok)
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

// withChunkRoom gives every chunk of g's ring room for n records, so a
// test decides where chunk boundaries fall.
func withChunkRoom(g *Generator, n int) {
	for i := range g.ring {
		g.ring[i].recs = make([]Record, 0, n)
	}
}

// drain pulls g to the end, with a producer filling ahead when ahead is
// set, and returns the records' N values. Next must keep reporting the
// end once it has.
func drain(t *testing.T, g *Generator, room int, ahead bool) []int {
	t.Helper()
	var stop func()
	if ahead {
		p := NewProducer([]*Generator{g})
		withChunkRoom(g, room)
		stop = p.Start()
		defer stop()
	} else {
		withChunkRoom(g, room)
	}
	var got []int
	for {
		rec, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, int(rec.N))
	}
	if _, ok := g.Next(); ok {
		t.Error("Next delivered a record after the stream ended")
	}
	return got
}

// TestGeneratorErrorPosition: the stream ends exactly where pulling one
// step at a time ends it, wherever the failure falls in a chunk and
// whether or not a producer fills ahead. A failed step's records are
// dropped; a check failure delivers every record before the failing one.
// Steps emit three records each and a chunk has room for seven, so a
// chunk holds two steps.
func TestGeneratorErrorPosition(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name     string
		failStep int // step that fails after emitting (-1: none)
		badN     int // record the check rejects (0: none)
		want     int // records delivered: N = 1..want
	}{
		{"check failure mid-chunk", -1, 5, 4},
		{"step error mid-chunk", 1, 0, 3},
		{"step error at a chunk boundary", 2, 0, 6},
		{"clean", -1, 0, 18},
	} {
		for _, ahead := range []bool{false, true} {
			steps := 0
			g := NewGenerator(func(emit func(Record)) (bool, error) {
				s := steps
				steps++
				for i := 1; i <= 3; i++ {
					emit(Compute(3*s + i))
				}
				if s == c.failStep {
					return false, boom
				}
				return s < 5, nil
			})
			g.SetCheck(func(r Record) error {
				if int(r.N) == c.badN {
					return boom
				}
				return nil
			})
			got := drain(t, g, 7, ahead)
			if len(got) != c.want {
				t.Errorf("%s (ahead %v): delivered %v, want N = 1..%d", c.name, ahead, got, c.want)
			}
			for i, n := range got {
				if n != i+1 {
					t.Errorf("%s (ahead %v): record %d has N %d, want %d", c.name, ahead, i, n, i+1)
					break
				}
			}
			if wantErr := c.want < 18; errors.Is(g.Err(), boom) != wantErr {
				t.Errorf("%s (ahead %v): Err = %v, want the failure: %v", c.name, ahead, g.Err(), wantErr)
			}
			if g.Produced() != uint64(c.want) {
				t.Errorf("%s (ahead %v): Produced = %d, want %d", c.name, ahead, g.Produced(), c.want)
			}
		}
	}
}

// TestGeneratorWriteSetSpansChunks: a transaction whose TX_BEGIN and
// TX_END land in different chunks is queued whole, and only when its
// TX_END is pulled.
func TestGeneratorWriteSetSpansChunks(t *testing.T) {
	a, b := memaddr.NVMBase+8, memaddr.NVMBase+16
	batches := [][]Record{
		{TxBegin(1), Store(a, 1), Store(memaddr.DRAMBase, 9)},
		{Store(b, 2), TxEnd(1), Compute(1)},
	}
	for _, ahead := range []bool{false, true} {
		o := oracleFor(nil)
		i := 0
		g := NewGenerator(func(emit func(Record)) (bool, error) {
			for _, r := range batches[i] {
				emit(r)
			}
			i++
			return i < len(batches), nil
		})
		g.SetOracle(o, 0)
		p := NewProducer([]*Generator{g})
		withChunkRoom(g, 4) // one batch per chunk
		if ahead {
			defer p.Start()()
		}
		for n := 0; n < 4; n++ {
			if _, ok := g.Next(); !ok {
				t.Fatalf("record %d missing", n)
			}
			if pendingSets(o, 0) != 0 {
				t.Fatalf("write set queued after %d records, before the TX_END", n+1)
			}
		}
		if rec, _ := g.Next(); rec.Kind != KindTxEnd || pendingSets(o, 0) != 1 {
			t.Fatalf("pulled %v with %d sets queued, want the TX_END and 1", rec.Kind, pendingSets(o, 0))
		}
		want := []Write{{a, 1}, {b, 2}}
		if q := o.cores[0].writes; len(q) != 2 || q[0] != want[0] || q[1] != want[1] {
			t.Fatalf("queued write set %+v, want %+v", q, want)
		}
	}
}

// TestRecordSize pins the record at 32 bytes: every chunk, core buffer
// and rewrite queue holds records by value.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 32 {
		t.Fatalf("Record is %d bytes, want 32", got)
	}
}
