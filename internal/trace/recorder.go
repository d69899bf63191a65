package trace

import "pmemaccel/internal/memimage"

// Recorder is the memory interface the workloads program against. It plays
// the role of the compiler plus persistent-heap runtime: every Load/Store
// both updates the architectural program image (so the data structures
// actually work) and emits a trace record. It also assigns transaction
// ids (the CPU's "next TxID register" of §4.2).
//
// Records flow into a sink (SetSink): the generator's chunk under fill,
// which keeps memory O(1) in the number of records. The recorder never
// touches the recovery oracle: the generator derives each transaction's
// write set from the records and queues it when the core pulls the
// TX_END.
type Recorder struct {
	img    *memimage.Image
	nextTx uint64
	inTx   bool
	curTx  uint64
	quiet  bool

	// sink receives every emitted record (discard until SetSink).
	sink func(Record)

	// Running counters over the measured (non-quiet) window.
	instructions uint64
	transactions uint64
}

// NewRecorder returns a recorder writing through to img. It discards
// records until SetSink.
func NewRecorder(img *memimage.Image) *Recorder {
	return &Recorder{img: img, nextTx: 1, sink: discard}
}

// discard is the sink of a recorder nobody consumes records from.
func discard(Record) {}

// Image returns the architectural program image.
func (r *Recorder) Image() *memimage.Image { return r.img }

// SetQuiet toggles warmup mode. While quiet, accesses update the program
// image but emit no trace records (so no write sets reach the oracle) —
// this models prepopulation whose effects are already durable before the
// measured window starts.
func (r *Recorder) SetQuiet(quiet bool) { r.quiet = quiet }

// SetSink routes every emitted record to fn, which must be non-nil. The
// generator points fn at its chunk under fill.
func (r *Recorder) SetSink(fn func(Record)) { r.sink = fn }

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

// Store writes a 64-bit word, recording the access.
func (r *Recorder) Store(addr, value uint64) {
	r.img.WriteWord(addr, value)
	if !r.quiet {
		r.emit(Store(addr, value))
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
	if !r.quiet {
		r.emit(TxBegin(id))
	}
	return id
}

// TxEnd commits the open transaction.
func (r *Recorder) TxEnd() {
	if !r.inTx {
		panic("trace: TxEnd outside transaction")
	}
	if !r.quiet {
		r.emit(TxEnd(r.curTx))
	}
	r.inTx = false
}
