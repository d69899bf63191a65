package trace

import (
	"fmt"

	"pmemaccel/internal/memaddr"
)

// Trace is an in-memory sequence of records: a hand-built trace for
// driving a core or a rewriter directly. Generated workloads never
// materialize one; they stream through a Generator.
type Trace struct {
	Records []Record
}

// Append adds records to the trace.
func (t *Trace) Append(recs ...Record) {
	t.Records = append(t.Records, recs...)
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Reader yields trace records one at a time. The core model consumes a
// Reader so that mechanisms can interpose rewriting readers without
// materializing the transformed trace.
type Reader interface {
	// Next returns the next record. ok is false when the trace is
	// exhausted.
	Next() (rec Record, ok bool)
}

// SliceReader reads a materialized Trace.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewReader returns a Reader over t.
func NewReader(t *Trace) *SliceReader {
	return &SliceReader{recs: t.Records}
}

// Next implements Reader.
func (r *SliceReader) Next() (Record, bool) {
	if r.pos >= len(r.recs) {
		return Record{}, false
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, true
}

// Remaining reports how many records are left.
func (r *SliceReader) Remaining() int { return len(r.recs) - r.pos }

// Stats summarizes the static composition of a trace.
type Stats struct {
	Records          int
	Instructions     uint64
	Loads            uint64
	Stores           uint64
	PersistentLoads  uint64
	PersistentStores uint64
	Transactions     uint64
	CLWBs            uint64
	SFences          uint64
	// MaxTxStores is the largest number of persistent stores in any
	// single transaction — the quantity that determines transaction
	// cache pressure.
	MaxTxStores int
}

// Summarize drains rd and computes Stats over every record it yields.
func Summarize(rd Reader) Stats {
	var s Stats
	inTx := false
	txStores := 0
	for {
		r, ok := rd.Next()
		if !ok {
			break
		}
		s.Records++
		s.Instructions += r.Instructions()
		switch r.Kind {
		case KindLoad:
			s.Loads++
			if memaddr.IsPersistent(r.Addr) {
				s.PersistentLoads++
			}
		case KindStore:
			s.Stores++
			if memaddr.IsPersistent(r.Addr) {
				s.PersistentStores++
				if inTx {
					txStores++
				}
			}
		case KindTxBegin:
			inTx, txStores = true, 0
		case KindTxEnd:
			s.Transactions++
			if txStores > s.MaxTxStores {
				s.MaxTxStores = txStores
			}
			inTx = false
		case KindCLWB:
			s.CLWBs++
		case KindSFence:
			s.SFences++
		}
	}
	return s
}

// StreamValidator checks trace well-formedness one record at a time, as
// records flow from the generator to the core:
//   - transactions do not nest and every begin has a matching end with the
//     same id;
//   - transaction ids strictly increase;
//   - persistent stores appear only inside transactions (the workloads'
//     contract: every durable update is transactional);
//   - compute batches are positive;
//   - load/store addresses are word aligned and in a mapped region.
//
// Feed every record to Check in order, then call Finish once the stream
// ends. The zero value is ready to use.
type StreamValidator struct {
	idx    int64
	inTx   bool
	curID  uint64
	lastID uint64
}

// Check validates the next record of the stream, returning the first
// violation found.
func (v *StreamValidator) Check(r Record) error {
	i := v.idx
	v.idx++
	switch r.Kind {
	case KindTxBegin:
		if v.inTx {
			return fmt.Errorf("record %d: nested tx_begin(%d) inside tx %d", i, r.TxID, v.curID)
		}
		if r.TxID <= v.lastID && v.lastID != 0 {
			return fmt.Errorf("record %d: tx id %d not increasing (last %d)", i, r.TxID, v.lastID)
		}
		v.inTx, v.curID, v.lastID = true, r.TxID, r.TxID
	case KindTxEnd:
		if !v.inTx {
			return fmt.Errorf("record %d: tx_end(%d) outside transaction", i, r.TxID)
		}
		if r.TxID != v.curID {
			return fmt.Errorf("record %d: tx_end(%d) does not match open tx %d", i, r.TxID, v.curID)
		}
		v.inTx = false
	case KindStore:
		if memaddr.IsPersistent(r.Addr) && !v.inTx {
			return fmt.Errorf("record %d: persistent store to %#x outside transaction", i, r.Addr)
		}
		fallthrough
	case KindLoad:
		if !memaddr.IsWordAligned(r.Addr) {
			return fmt.Errorf("record %d: %s address %#x not word aligned", i, r.Kind, r.Addr)
		}
		if memaddr.Classify(r.Addr) == memaddr.SpaceInvalid {
			return fmt.Errorf("record %d: %s address %#x outside every region", i, r.Kind, r.Addr)
		}
	case KindCompute:
		if r.N <= 0 {
			return fmt.Errorf("record %d: compute batch of %d instructions", i, r.N)
		}
	}
	return nil
}

// Finish validates end-of-stream conditions (no transaction left open).
func (v *StreamValidator) Finish() error {
	if v.inTx {
		return fmt.Errorf("trace ends inside open transaction %d", v.curID)
	}
	return nil
}
