package trace

import (
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
)

// Write is one durable word update, the unit of the recovery oracle.
type Write struct {
	Addr  uint64
	Value uint64
}

// Recorder is the memory interface the workloads program against. It plays
// the role of the compiler plus persistent-heap runtime: every Load/Store
// both updates the architectural program image (so the data structures
// actually work) and emits a trace record. It also assigns transaction
// ids (the CPU's "next TxID register" of §4.2) and queues each committed
// transaction's persistent write set on the recovery oracle (SetOracle).
//
// Records flow into a sink (SetSink): the generator's bounded per-core
// buffer, which keeps memory O(1) in the number of records.
type Recorder struct {
	img    *memimage.Image
	nextTx uint64
	inTx   bool
	curTx  uint64
	quiet  bool

	// sink receives every emitted record (discard until SetSink).
	sink func(Record)

	// oracle receives each committed write set as core's; nil until
	// SetOracle.
	oracle *Oracle
	core   int

	// Running counters over the measured (non-quiet) window.
	instructions uint64
	transactions uint64

	// pending is the open transaction's persistent write set.
	pending []Write
}

// NewRecorder returns a recorder writing through to img. It discards
// records until SetSink and write sets until SetOracle.
func NewRecorder(img *memimage.Image) *Recorder {
	return &Recorder{img: img, nextTx: 1, sink: discard}
}

// discard is the sink of a recorder nobody consumes records from.
func discard(Record) {}

// Image returns the architectural program image.
func (r *Recorder) Image() *memimage.Image { return r.img }

// SetQuiet toggles warmup mode. While quiet, accesses update the program
// image but emit no trace records and publish nothing to the oracle —
// this models prepopulation whose effects are already durable before the
// measured window starts.
func (r *Recorder) SetQuiet(quiet bool) { r.quiet = quiet }

// Quiet reports whether warmup mode is active.
func (r *Recorder) Quiet() bool { return r.quiet }

// SetSink routes every emitted record to fn, which must be non-nil. The
// generator points fn at its bounded per-core buffer.
func (r *Recorder) SetSink(fn func(Record)) { r.sink = fn }

// SetOracle queues every transaction committed from now on, as core's,
// on o.
func (r *Recorder) SetOracle(o *Oracle, core int) { r.oracle, r.core = o, core }

// Instructions returns the dynamic instruction count of the measured
// window emitted so far.
func (r *Recorder) Instructions() uint64 { return r.instructions }

// Transactions returns the number of committed (TxEnd) transactions
// emitted so far.
func (r *Recorder) Transactions() uint64 { return r.transactions }

// emit routes one record to the sink, maintaining the running counters.
func (r *Recorder) emit(rec Record) {
	r.instructions += rec.Instructions()
	if rec.Kind == KindTxEnd {
		r.transactions++
	}
	r.sink(rec)
}

// Load reads a 64-bit word, recording an independent access.
func (r *Recorder) Load(addr uint64) uint64 {
	if !r.quiet {
		r.emit(Load(addr))
	}
	return r.img.ReadWord(addr)
}

// LoadDep reads a 64-bit word whose address was derived from an earlier
// load (pointer chasing); the core serializes it behind outstanding
// loads.
func (r *Recorder) LoadDep(addr uint64) uint64 {
	if !r.quiet {
		r.emit(LoadDep(addr))
	}
	return r.img.ReadWord(addr)
}

// Store writes a 64-bit word, recording the access. Persistent stores
// inside a transaction join the transaction's oracle write set.
func (r *Recorder) Store(addr, value uint64) {
	r.img.WriteWord(addr, value)
	if r.quiet {
		return
	}
	r.emit(Store(addr, value))
	if r.inTx && memaddr.IsPersistent(addr) {
		r.pending = append(r.pending, Write{Addr: memaddr.WordAddr(addr), Value: value})
	}
}

// Compute records n non-memory instructions of work.
func (r *Recorder) Compute(n int) {
	if n <= 0 || r.quiet {
		return
	}
	r.emit(Compute(n))
}

// TxBegin opens a durable transaction and returns its id. Transactions do
// not nest; nesting panics because it is a workload programming error, not
// a runtime condition.
func (r *Recorder) TxBegin() uint64 {
	if r.inTx {
		panic("trace: nested TxBegin")
	}
	id := r.nextTx
	r.nextTx++
	r.inTx, r.curTx = true, id
	r.pending = r.pending[:0]
	if !r.quiet {
		r.emit(TxBegin(id))
	}
	return id
}

// TxEnd commits the open transaction, queueing its write set on the
// oracle.
func (r *Recorder) TxEnd() {
	if !r.inTx {
		panic("trace: TxEnd outside transaction")
	}
	if !r.quiet {
		r.emit(TxEnd(r.curTx))
		if r.oracle != nil {
			r.oracle.queue(r.core, r.pending)
		}
	}
	r.inTx = false
	r.pending = r.pending[:0]
}

// InTx reports whether a transaction is open.
func (r *Recorder) InTx() bool { return r.inTx }
