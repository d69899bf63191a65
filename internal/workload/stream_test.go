package workload

import (
	"runtime"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/trace"
)

// generate builds b's workload, drains the stream into a trace, and
// returns the first error from NewStream or the stream itself.
func generate(b Benchmark, p Params) (*Output, *trace.Trace, error) {
	out, _, tr, err := generateFolded(b, p)
	return out, tr, err
}

// generateFolded is generate with a one-core oracle attached, seeded
// like the machine's with the base image's persistent words, and every
// queued write set committed once the stream drains (the machine at
// quiescence).
func generateFolded(b Benchmark, p Params) (*Output, *trace.Oracle, *trace.Trace, error) {
	out, err := NewStream(b, p)
	if err != nil {
		return nil, nil, nil, err
	}
	o := trace.NewOracle(1, persistentWords(out.BaseImage))
	out.Stream.SetOracle(o, 0)
	tr := &trace.Trace{}
	rd := out.NewReader()
	for {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		tr.Append(rec)
	}
	for i := uint64(0); i < out.Recorder.Transactions(); i++ {
		o.Commit(0)
	}
	return out, o, tr, out.StreamErr()
}

// persistentWords returns img's persistent words.
func persistentWords(img *memimage.Image) *memimage.Image {
	out := memimage.New()
	img.ForEach(func(addr, v uint64) {
		if memaddr.IsPersistent(addr) {
			out.WriteWord(addr, v)
		}
	})
	return out
}

// TestStreamMatchesGenerateRecords pins the oracle's consistency with the
// stream it rides on, for every benchmark: the running counters equal a
// Summarize of the drained records, exactly one transaction commits per
// op, and with every write set folded the oracle image equals the
// program image's persistent words.
func TestStreamMatchesGenerateRecords(t *testing.T) {
	for _, b := range Extended {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			p := testParams(3, 150, 250)
			out, o, tr, err := generateFolded(b, p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			s := trace.Summarize(trace.NewReader(tr))
			if got := out.Recorder.Instructions(); got != s.Instructions {
				t.Errorf("instruction counter = %d, records sum to %d", got, s.Instructions)
			}
			if got := out.Recorder.Transactions(); got != s.Transactions {
				t.Errorf("transaction counter = %d, records hold %d", got, s.Transactions)
			}
			if got := o.Committed(0); got != uint64(p.Ops) {
				t.Errorf("oracle committed %d transactions, want %d", got, p.Ops)
			}
			if !o.Image().Equal(persistentWords(out.Recorder.Image())) {
				t.Error("oracle image at quiescence differs from the program image's persistent words")
			}
		})
	}
}

// heapAllocAfterDrain generates an sps stream of the given length,
// drains it, and reports the live heap afterwards (with the output still
// reachable, so structure state counts and trace state would too, if any
// accumulated).
func heapAllocAfterDrain(t *testing.T, ops int) uint64 {
	t.Helper()
	p := testParams(5, 4096, ops)
	p.SearchesPerOp = 0
	out, err := NewStream(SPS, p)
	if err != nil {
		t.Fatal(err)
	}
	rd := out.NewReader()
	n := 0
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
		n++
	}
	if err := out.StreamErr(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("stream produced no records")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(out)
	return ms.HeapAlloc
}

// TestStreamMemoryCeiling pins the tentpole's memory claim: growing the
// op count 100x must leave the live heap roughly flat, because nothing
// O(ops) is retained — no materialized trace, no per-transaction
// history. sps is the vehicle since its structure footprint (a
// fixed-size array) is independent of the op count; insert benchmarks
// legitimately grow with ops.
func TestStreamMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-ceiling run is a few seconds")
	}
	small := heapAllocAfterDrain(t, 2_000)
	large := heapAllocAfterDrain(t, 200_000)
	// "Roughly flat": allow slack for allocator noise, but a materialized
	// path would grow by ~100x here (tens of MB), far past 2x.
	if large > 2*small+(8<<20) {
		t.Errorf("HeapAlloc grew from %d to %d across a 100x op increase; streaming must stay O(1) in ops", small, large)
	}
}

// TestStreamErrorSurfaces forces a mid-stream workload failure (heap
// exhaustion during the measured window) and checks the contract: the
// reader just ends, and StreamErr reports the failure.
func TestStreamErrorSurfaces(t *testing.T) {
	p := testParams(1, 16, 1_000_000)
	p.SearchesPerOp = 0
	// Small persistent region: setup fits, but rbtree inserts never free,
	// so the op loop's allocations exhaust it mid-run.
	p.PersistentRegion = memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 14}
	out, err := NewStream(RBTree, p)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	rd := out.NewReader()
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
	}
	if err := out.StreamErr(); err == nil {
		t.Fatal("stream exhausted the heap mid-run but StreamErr is nil")
	}
}

// TestCalibration sanity-checks InstructionsPerOp: positive, finite, and
// stable for a fixed seed.
func TestCalibration(t *testing.T) {
	p := testParams(1, 200, 0)
	a, err := InstructionsPerOp(SPS, p)
	if err != nil {
		t.Fatalf("InstructionsPerOp: %v", err)
	}
	if a <= 1 {
		t.Errorf("instructions per op = %g, want > 1", a)
	}
	b, err := InstructionsPerOp(SPS, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("calibration not deterministic: %g vs %g", a, b)
	}
}
