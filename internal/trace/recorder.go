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

// TxRecord is the oracle entry for one transaction: its id and its
// persistent write set in program order.
type TxRecord struct {
	ID     uint64
	Writes []Write
}

// Recorder is the memory interface the workloads program against. It plays
// the role of the compiler plus persistent-heap runtime: every Load/Store
// both updates the architectural program image (so the data structures
// actually work) and emits a trace record. It also assigns transaction
// ids (the CPU's "next TxID register" of §4.2) and maintains the oracle of
// committed transactions used by crash-recovery checking.
//
// Records flow into a sink (SetSink): the generator's bounded per-core
// buffer, which keeps memory O(1) in the number of records. The oracle
// has two forms: the full per-transaction history (Committed), retained
// on request, and the incremental final image plus running counters,
// which are always maintained and are all a run to quiescence needs.
type Recorder struct {
	img    *memimage.Image
	nextTx uint64
	inTx   bool
	curTx  uint64
	quiet  bool

	// sink receives every emitted record (discard until SetSink).
	sink func(Record)

	// retain keeps the full committed-transaction history. It is O(ops)
	// memory and only crash-prefix checking (CommittedPrefixImage) and
	// the shared-mode commit-order oracle need it.
	retain bool

	// Running counters over the measured (non-quiet) window.
	instructions uint64
	transactions uint64

	// final is the incremental oracle image: the post-warmup base plus
	// every committed write set folded in at TxEnd. Nil until
	// SetFinalBase.
	final *memimage.Image

	pending   []Write
	committed []TxRecord
}

// NewRecorder returns a recorder writing through to img. It retains the
// transaction history and discards records until SetSink.
func NewRecorder(img *memimage.Image) *Recorder {
	return &Recorder{img: img, nextTx: 1, retain: true, sink: discard}
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

// SetRetainTxHistory controls whether the full committed-transaction
// history accumulates. Switching it off also releases the history kept so
// far; the incremental final image and the committed counter remain
// available either way.
func (r *Recorder) SetRetainTxHistory(retain bool) {
	r.retain = retain
	if !retain {
		r.committed = nil
	}
}

// RetainsTxHistory reports whether Committed holds the full history.
func (r *Recorder) RetainsTxHistory() bool { return r.retain }

// SetFinalBase starts the incremental oracle image from a snapshot of
// base (the post-warmup durable state). Committed write sets fold into
// it at every TxEnd from then on.
func (r *Recorder) SetFinalBase(base *memimage.Image) { r.final = base.Snapshot() }

// FinalImage returns the incremental oracle image: base plus every
// committed transaction so far. It is complete only once the generator
// is exhausted. Nil before SetFinalBase.
func (r *Recorder) FinalImage() *memimage.Image { return r.final }

// Instructions returns the dynamic instruction count of the measured
// window emitted so far.
func (r *Recorder) Instructions() uint64 { return r.instructions }

// Transactions returns the number of committed (TxEnd) transactions
// emitted so far.
func (r *Recorder) Transactions() uint64 { return r.transactions }

// CommittedCount returns how many transactions have committed in the
// measured window, independent of whether their history was retained.
func (r *Recorder) CommittedCount() uint64 { return r.transactions }

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

// TxEnd commits the open transaction, adding its write set to the oracle
// (the retained history when enabled, and the incremental final image
// always).
func (r *Recorder) TxEnd() {
	if !r.inTx {
		panic("trace: TxEnd outside transaction")
	}
	if !r.quiet {
		r.emit(TxEnd(r.curTx))
		if r.retain {
			ws := make([]Write, len(r.pending))
			copy(ws, r.pending)
			r.committed = append(r.committed, TxRecord{ID: r.curTx, Writes: ws})
		}
		if r.final != nil {
			for _, w := range r.pending {
				r.final.WriteWord(w.Addr, w.Value)
			}
		}
	}
	r.inTx = false
	r.pending = r.pending[:0]
}

// InTx reports whether a transaction is open.
func (r *Recorder) InTx() bool { return r.inTx }

// Committed returns the oracle: every committed transaction with its
// persistent write set, in commit order. Empty when history retention is
// off (use CommittedCount and FinalImage instead).
func (r *Recorder) Committed() []TxRecord { return r.committed }

// CommittedPrefixImage builds the durable NVM image that results from
// applying the first n committed transactions to base (nil base means an
// empty image). Recovery checking compares a post-crash recovered image
// against one of these prefixes. Requires the retained history.
func (r *Recorder) CommittedPrefixImage(base *memimage.Image, n int) *memimage.Image {
	var img *memimage.Image
	if base != nil {
		img = base.Snapshot()
	} else {
		img = memimage.New()
	}
	if n > len(r.committed) {
		n = len(r.committed)
	}
	for _, tx := range r.committed[:n] {
		for _, w := range tx.Writes {
			img.WriteWord(w.Addr, w.Value)
		}
	}
	return img
}
