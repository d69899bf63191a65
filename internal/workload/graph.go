package workload

import (
	"fmt"

	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// graph is the adjacency-list edge-insert benchmark. The vertex table is a
// persistent array of list-head pointers; each operation allocates an edge
// node and links it at the head of a random vertex's list — the linked-list
// insert from the paper's introduction whose dangling-pointer failure mode
// motivates write-order control.
//
// Edge node layout (3 words): 0 = destination vertex, 1 = weight,
// 2 = next edge pointer (0 terminates the list).
type graph struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	heads    uint64 // base of vertex head-pointer array
	vertices int
	edges    int
}

const (
	graphEdgeWords = 3
	geTo           = 0
	geWeight       = 1
	geNext         = 2
)

func newGraph(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *graph {
	return &graph{rec: rec, heap: hp, rng: rng}
}

func (g *graph) headAddr(v int) uint64 { return g.heads + uint64(v)*8 }

// graphDegree is the average prepopulated out-degree: measured inserts
// scan a list of roughly this length before linking.
const graphDegree = 8

func (g *graph) setup(n int) error {
	if n < graphDegree {
		return fmt.Errorf("graph needs at least %d elements, got %d", graphDegree, n)
	}
	// n counts heap elements (~one edge each); carve out vertices so the
	// average degree lands at graphDegree.
	g.vertices = n / graphDegree
	heads, err := g.heap.Alloc(g.vertices)
	if err != nil {
		return err
	}
	g.heads = heads
	for v := 0; v < g.vertices; v++ {
		g.rec.Store(g.headAddr(v), 0)
	}
	for i := 0; i < n; i++ {
		if err := g.insertEdge(g.rng.Intn(g.vertices), g.rng.Intn(g.vertices)); err != nil {
			return err
		}
	}
	return nil
}

// insertEdge adds src->dst: scan src's adjacency list for an existing
// edge (updating its weight in place if found), else allocate a node and
// link it at the head. All durable writes happen inside one transaction:
// node initialization first, then the head pointer — the ordering whose
// violation corrupts the list.
func (g *graph) insertEdge(src, dst int) error {
	g.rec.TxBegin()
	head := g.rec.Load(g.headAddr(src))
	for node := head; node != 0; {
		g.rec.Compute(CostNodeVisit)
		if int(g.rec.LoadDep(node+geTo*8)) == dst {
			g.rec.Store(node+geWeight*8, g.rng.Uint64()%1000)
			g.rec.TxEnd()
			return nil
		}
		node = g.rec.LoadDep(node + geNext*8)
	}
	node, err := g.heap.Alloc(graphEdgeWords)
	if err != nil {
		g.rec.TxEnd()
		return err
	}
	g.rec.Compute(CostAlloc)
	g.rec.Store(node+geTo*8, uint64(dst))
	g.rec.Store(node+geWeight*8, g.rng.Uint64()%1000)
	g.rec.Store(node+geNext*8, head)
	g.rec.Store(g.headAddr(src), node)
	g.rec.TxEnd()
	g.edges++
	return nil
}

func (g *graph) op(searches int) error {
	g.rec.Compute(CostOpSetup)
	return g.insertEdge(g.rng.Intn(g.vertices), g.rng.Intn(g.vertices))
}

func (g *graph) expect() expected { return expected{n: int64(g.edges)} }

func (g *graph) describe() Meta {
	return Meta{Heads: g.heads, Vertices: g.vertices}
}
