package trace

import (
	"sync"
	"sync/atomic"

	"pmemaccel/internal/memaddr"
)

// Generator is a pull-based Reader that produces records on demand
// instead of replaying a materialized trace: a step function emits the
// next batch (one workload operation's records) whenever a chunk needs
// filling. Memory is a small ring of reused chunks, not O(trace length) —
// the streaming pipeline's core primitive.
//
// Records reach the consumer through a ring of ringChunks chunks. Filling
// a chunk runs whole steps, checks their records and closes the write
// set of every TX_END; a chunk that ends the stream carries the error or
// end mark after its last record. A Producer fills chunks ahead of the
// consumer on its own goroutine; when no chunk is ready, Next fills one
// itself through the same fill function, so a generator without a
// running Producer (a tool, a calibration run) or with one that seldom
// gets a CPU (GOMAXPROCS=1) delivers the same records in the same order. Whoever fills holds fillMu, so the
// step function and the check never run concurrently with themselves.
//
// A Generator is single-use and has one consumer: Next, Err and Produced
// must not be called concurrently with each other.
type Generator struct {
	// step emits the next batch of records through emit and reports
	// whether more batches remain. Returning an error (or more=false)
	// ends the stream; the error is sticky and surfaced by Err.
	step func(emit func(Record)) (more bool, err error)
	// check, when set, validates each record in stream order. A check
	// failure ends the stream with a sticky error.
	check func(Record) error
	// emitFn is the method value g.emit, bound once so a step does not
	// allocate a fresh closure per workload operation.
	emitFn func(Record)
	// oracle, when set, receives each TX_END's write set as core's.
	oracle *Oracle
	core   int

	ring [ringChunks]chunk
	// filled counts published chunks and read counts the chunks the
	// consumer has released; the chunks in [read, filled) are the one
	// being read and those ready behind it.
	filled, read atomic.Uint64

	// Fill side, guarded by fillMu. The step function and the check run
	// with it held: the stream state they touch is what it guards, so
	// neither may call back into the generator.
	fillMu  sync.Mutex
	fillc   *chunk  // the chunk under fill: emit's target
	ended   bool    // the chunk ending the stream is filled
	maxStep int     // most records any step has emitted
	inTx    bool    // a transaction is open at the fill point
	open    []Write // the open transaction's persistent stores

	// Consume side.
	cur      *chunk
	recs     []Record // cur's records
	pos      int      // next record of recs to deliver
	tx       int      // TX_ENDs of cur delivered so far
	done     bool
	err      error
	wake     chan struct{} // the running Producer's wake-up, nil if none
	produced uint64
}

// ringChunks is the depth of every generator's chunk ring: the chunk
// being read plus up to ringChunks-1 filled ahead of it.
const ringChunks = 4

// chunk is one fill's output.
type chunk struct {
	recs []Record
	// writes holds the write sets of the chunk's TX_END records back to
	// back; ends[i] is the end offset in writes of the i-th one's set.
	writes []Write
	ends   []int32
	// err ends the stream after recs, at the position where the step or
	// the check failed; last ends it cleanly.
	err  error
	last bool
}

// NewGenerator returns a generator over step. step is called each time a
// chunk is filled; it may emit any number of records (including zero) per
// call.
func NewGenerator(step func(emit func(Record)) (more bool, err error)) *Generator {
	g := &Generator{step: step}
	g.emitFn = g.emit
	return g
}

// SetCheck installs a per-record validator applied to each record in
// stream order. The first failure ends the stream: the consumer receives
// every record before the failing one, and Err reports the failure.
// Install it before the first Next.
func (g *Generator) SetCheck(fn func(Record) error) { g.check = fn }

// SetOracle queues the write set of every transaction on o as core's
// when the consumer pulls its TX_END record. A transaction's write set is
// its persistent stores, in program order. Attach it before the first
// Next.
func (g *Generator) SetOracle(o *Oracle, core int) { g.oracle, g.core = o, core }

// Next implements Reader: it drains the current chunk and moves to the
// next one as needed.
func (g *Generator) Next() (Record, bool) {
	for g.pos == len(g.recs) {
		if !g.advance() {
			return Record{}, false
		}
	}
	rec := g.recs[g.pos]
	g.pos++
	if rec.Kind == KindTxEnd && g.oracle != nil {
		c := g.cur
		start := int32(0)
		if g.tx > 0 {
			start = c.ends[g.tx-1]
		}
		g.oracle.queue(g.core, c.writes[start:c.ends[g.tx]])
		g.tx++
	}
	g.produced++
	return rec, true
}

// advance releases the drained chunk, surfacing the end of stream or the
// error it carries, and moves to the next chunk, filling one itself when
// none is ready. It reports false once the stream has ended.
func (g *Generator) advance() bool {
	if c := g.cur; c != nil {
		g.err, g.done = c.err, c.err != nil || c.last
		g.cur, g.recs, g.pos = nil, nil, 0
		g.release()
	}
	if g.done {
		return false
	}
	n := g.read.Load()
	if g.filled.Load() == n {
		g.fillMu.Lock()
		if g.filled.Load() == n { // the producer did not publish one meanwhile
			g.fill()
		}
		g.fillMu.Unlock()
	}
	g.cur = &g.ring[n%ringChunks]
	g.recs, g.pos, g.tx = g.cur.recs, 0, 0
	return true
}

// release hands the drained chunk back to the fill side and, once no
// more than half the ring is ready, wakes the running Producer.
func (g *Generator) release() {
	n := g.read.Add(1)
	if g.wake != nil && g.filled.Load()-n <= ringChunks/2 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// fillAhead fills the next free chunk unless the ring is full, the
// stream is fully generated, or the consumer is filling one itself. It
// reports whether it filled one.
func (g *Generator) fillAhead() bool {
	if !g.fillMu.TryLock() {
		return false
	}
	defer g.fillMu.Unlock()
	if g.ended || g.filled.Load()-g.read.Load() == ringChunks {
		return false
	}
	g.fill()
	return true
}

// fill runs steps into the next free chunk and publishes it. It stops
// when the stream ends, or when the chunk's room is less than the largest
// step seen so far, so a chunk outgrows its capacity only on a step
// larger than any before it. A failed step's records are dropped, and a
// check failure truncates the chunk at the failing record: the chunk then
// ends with the error. The caller holds fillMu, and the stream has not
// ended.
func (g *Generator) fill() {
	c := &g.ring[g.filled.Load()%ringChunks]
	c.recs, c.writes, c.ends, c.err, c.last = c.recs[:0], c.writes[:0], c.ends[:0], nil, false
	g.fillc = c
	for {
		start := len(c.recs)
		more, err := g.step(g.emitFn)
		if err != nil {
			c.recs = c.recs[:start]
		} else if g.check != nil {
			for i := start; i < len(c.recs); i++ {
				if err = g.check(c.recs[i]); err != nil {
					c.recs = c.recs[:i]
					break
				}
			}
		}
		if g.oracle != nil {
			g.closeWriteSets(c, start)
		}
		if err != nil || !more {
			c.err, c.last, g.ended = err, err == nil, true
			break
		}
		g.maxStep = max(g.maxStep, len(c.recs)-start)
		if cap(c.recs)-len(c.recs) < g.maxStep {
			break
		}
	}
	g.fillc = nil
	g.filled.Add(1)
}

// emit appends one record to the chunk under fill; the step function
// receives it as its output channel.
func (g *Generator) emit(rec Record) { g.fillc.recs = append(g.fillc.recs, rec) }

// closeWriteSets collects the persistent stores of c.recs[from:] into the
// open transaction's write set and files that set in c at each TX_END.
func (g *Generator) closeWriteSets(c *chunk, from int) {
	for _, r := range c.recs[from:] {
		switch r.Kind {
		case KindTxBegin:
			g.inTx, g.open = true, g.open[:0]
		case KindStore:
			if g.inTx && memaddr.IsPersistent(r.Addr) {
				g.open = append(g.open, Write{Addr: memaddr.WordAddr(r.Addr), Value: r.Value})
			}
		case KindTxEnd:
			c.writes = append(c.writes, g.open...)
			c.ends = append(c.ends, int32(len(c.writes)))
			g.inTx, g.open = false, g.open[:0]
		}
	}
}

// Err returns the sticky stream error: a step failure or a per-record
// check violation, once the consumer has reached it. Consumers see an
// exhausted stream either way, so the driver must surface Err after the
// run.
func (g *Generator) Err() error { return g.err }

// Produced reports how many records the generator has handed out.
func (g *Generator) Produced() uint64 { return g.produced }
