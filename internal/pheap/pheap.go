// Package pheap implements the bump-pointer allocator that the benchmark
// data structures allocate from. It is the simulation-side equivalent of
// the paper's p_malloc (Figure 1): workloads receive word-aligned
// addresses inside their core's persistent (or volatile) region. No
// benchmark frees, so blocks are never reused.
//
// The allocator is deliberately bookkeeping-only: it does not emit trace
// records itself. Workloads account the allocator's instruction cost with
// an explicit Compute batch (see workload.CostAlloc), which keeps the
// allocator reusable for both persistent and volatile regions without
// entangling it with the trace layer.
package pheap

import (
	"fmt"

	"pmemaccel/internal/memaddr"
)

// Heap allocates word-aligned blocks from a fixed address range.
type Heap struct {
	region memaddr.Range
	next   uint64
}

// New returns a heap over region. The region base must be word aligned.
func New(region memaddr.Range) *Heap {
	if !memaddr.IsWordAligned(region.Base) {
		panic(fmt.Sprintf("pheap: region base %#x not word aligned", region.Base))
	}
	return &Heap{region: region, next: region.Base}
}

// Alloc returns the address of a block of the given number of 64-bit
// words, advancing the bump pointer. It returns an error when the region
// is exhausted.
func (h *Heap) Alloc(words int) (uint64, error) {
	if words <= 0 {
		return 0, fmt.Errorf("pheap: alloc of %d words", words)
	}
	size := uint64(words) * memaddr.WordSize
	if h.next+size > h.region.End() {
		return 0, fmt.Errorf("pheap: out of memory: %d bytes requested, %d left in region [%#x,%#x)",
			size, h.region.End()-h.next, h.region.Base, h.region.End())
	}
	addr := h.next
	h.next += size
	return addr, nil
}

// HighWater reports the highest address ever handed out (exclusive), i.e.
// the touched footprint of the heap.
func (h *Heap) HighWater() uint64 { return h.next }
