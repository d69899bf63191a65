package workload

import (
	"fmt"

	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// hashtable is the chained key-value hashtable benchmark. Buckets are a
// persistent pointer array; each entry is a 3-word node {key, value, next}.
// An operation performs SearchesPerOp read-only lookups of existing keys
// followed by one durable insert (or value update on key collision).
type hashtable struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	buckets  uint64
	nbuckets int
	keys     []uint64 // inserted keys (volatile driver bookkeeping)
	size     int      // distinct keys in the table
}

const (
	htNodeWords = 3
	htKey       = 0
	htVal       = 1
	htNext      = 2
)

func newHashtable(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *hashtable {
	return &hashtable{rec: rec, heap: hp, rng: rng}
}

// hash is a 64-bit mix (splitmix64 finalizer); its cost is charged as
// CostHash compute instructions at each use site.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (h *hashtable) bucketAddr(k uint64) uint64 {
	return h.buckets + (hash(k)%uint64(h.nbuckets))*8
}

func (h *hashtable) setup(n int) error {
	if n < 1 {
		return fmt.Errorf("hashtable needs at least 1 element, got %d", n)
	}
	// Size buckets for a load factor around 2 at the end of the run,
	// keeping chains short but non-trivial.
	h.nbuckets = n/2 + 1
	b, err := h.heap.Alloc(h.nbuckets)
	if err != nil {
		return err
	}
	h.buckets = b
	for i := 0; i < h.nbuckets; i++ {
		h.rec.Store(h.buckets+uint64(i)*8, 0)
	}
	for i := 0; i < n; i++ {
		if err := h.insert(h.rng.Uint64()%uint64(4*n)+1, h.rng.Uint64()); err != nil {
			return err
		}
	}
	return nil
}

// lookup walks the chain for key, returning the node address (0 if
// absent). It is read-only and non-transactional.
func (h *hashtable) lookup(key uint64) uint64 {
	h.rec.Compute(CostHash)
	node := h.rec.Load(h.bucketAddr(key))
	for node != 0 {
		h.rec.Compute(CostNodeVisit)
		if h.rec.LoadDep(node+htKey*8) == key {
			h.rec.LoadDep(node + htVal*8)
			return node
		}
		node = h.rec.LoadDep(node + htNext*8)
	}
	return 0
}

// insert adds key->value durably: node initialization then bucket-head
// publication in one transaction, or an in-place value update if the key
// already exists.
func (h *hashtable) insert(key, value uint64) error {
	h.rec.Compute(CostHash)
	baddr := h.bucketAddr(key)
	h.rec.TxBegin()
	head := h.rec.Load(baddr)
	node := head
	for node != 0 {
		h.rec.Compute(CostNodeVisit)
		if h.rec.LoadDep(node+htKey*8) == key {
			h.rec.Store(node+htVal*8, value)
			h.rec.TxEnd()
			return nil
		}
		node = h.rec.LoadDep(node + htNext*8)
	}
	fresh, err := h.heap.Alloc(htNodeWords)
	if err != nil {
		return err
	}
	h.rec.Compute(CostAlloc)
	h.rec.Store(fresh+htKey*8, key)
	h.rec.Store(fresh+htVal*8, value)
	h.rec.Store(fresh+htNext*8, head)
	h.rec.Store(baddr, fresh)
	h.rec.TxEnd()
	h.keys = append(h.keys, key)
	h.size++
	return nil
}

func (h *hashtable) op(searches int) error {
	h.rec.Compute(CostOpSetup)
	for s := 0; s < searches && len(h.keys) > 0; s++ {
		h.lookup(h.keys[h.rng.Intn(len(h.keys))])
	}
	keyRange := uint64(4 * (h.size + 1))
	return h.insert(h.rng.Uint64()%keyRange+1, h.rng.Uint64())
}

func (h *hashtable) expect() expected { return expected{n: int64(h.size)} }

func (h *hashtable) describe() Meta {
	return Meta{Buckets: h.buckets, NBuckets: h.nbuckets}
}
