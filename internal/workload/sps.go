package workload

import (
	"fmt"

	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// sps is the "swap elements in a persistent array" benchmark — the most
// write-intensive of the suite (two persistent stores per four memory
// references with almost no compute), and therefore the workload that
// stresses the transaction cache hardest (§5.2: only sps ever stalls the
// CPU on a full transaction cache).
type sps struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	base uint64
	n    int
}

func newSPS(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *sps {
	return &sps{rec: rec, heap: hp, rng: rng}
}

func (s *sps) addr(i int) uint64 { return s.base + uint64(i)*8 }

func (s *sps) setup(n int) error {
	if n < 2 {
		return fmt.Errorf("sps needs at least 2 elements, got %d", n)
	}
	s.n = n
	base, err := s.heap.Alloc(n)
	if err != nil {
		return err
	}
	s.base = base
	for i := 0; i < n; i++ {
		s.rec.Store(s.addr(i), uint64(i)+1)
	}
	return nil
}

func (s *sps) op(searches int) error {
	// sps performs no standalone lookups; searches is ignored by design
	// (the paper describes it as pure random swaps).
	i := s.rng.Intn(s.n)
	j := s.rng.Intn(s.n - 1)
	if j >= i {
		j++
	}
	// A swap is two index computations and four memory operations — far
	// less compute per store than any other benchmark, which is what
	// makes sps the suite's write-intensity extreme.
	s.rec.Compute(3)
	s.rec.TxBegin()
	vi := s.rec.Load(s.addr(i))
	vj := s.rec.Load(s.addr(j))
	s.rec.Store(s.addr(i), vj)
	s.rec.Store(s.addr(j), vi)
	s.rec.TxEnd()
	return nil
}

func (s *sps) expect() expected { return expected{n: int64(s.n)} }

func (s *sps) describe() Meta {
	return Meta{ArrayBase: s.base, ArrayLen: s.n}
}
