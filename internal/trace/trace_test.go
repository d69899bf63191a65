package trace

import (
	"testing"

	"pmemaccel/internal/memaddr"
)

func nvm(off uint64) uint64  { return memaddr.NVMBase + off }
func dram(off uint64) uint64 { return memaddr.DRAMBase + off }

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindCompute: "compute", KindLoad: "load", KindStore: "store",
		KindTxBegin: "tx_begin", KindTxEnd: "tx_end",
		KindCLWB: "clwb", KindSFence: "sfence",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestInstructionsAccounting(t *testing.T) {
	if got := Compute(7).Instructions(); got != 7 {
		t.Errorf("Compute(7).Instructions() = %d, want 7", got)
	}
	for _, r := range []Record{Load(8), Store(8, 1), TxBegin(1), TxEnd(1), CLWB(8), SFence()} {
		if r.Instructions() != 1 {
			t.Errorf("%v.Instructions() = %d, want 1", r.Kind, r.Instructions())
		}
	}
}

func TestTraceInstructionsAndTransactions(t *testing.T) {
	var tr Trace
	tr.Append(TxBegin(1), Compute(10), Store(nvm(0), 5), TxEnd(1), Compute(3))
	s := Summarize(NewReader(&tr))
	if s.Instructions != 16 {
		t.Errorf("Instructions = %d, want 16", s.Instructions)
	}
	if s.Transactions != 1 {
		t.Errorf("Transactions = %d, want 1", s.Transactions)
	}
}

func TestReader(t *testing.T) {
	var tr Trace
	tr.Append(Compute(1), Load(dram(8)), Store(dram(16), 2))
	r := NewReader(&tr)
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", r.Remaining())
	}
	for i := 0; i < 3; i++ {
		rec, ok := r.Next()
		if !ok {
			t.Fatalf("Next() exhausted at %d", i)
		}
		if rec != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, tr.Records[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next() returned a record past the end")
	}
}

func TestSummarize(t *testing.T) {
	var tr Trace
	tr.Append(
		TxBegin(1),
		Compute(4),
		Load(nvm(0)),
		Store(nvm(8), 1),
		Store(nvm(16), 2),
		TxEnd(1),
		Load(dram(8)),
		Store(dram(16), 3),
		TxBegin(2),
		Store(nvm(24), 4),
		TxEnd(2),
		CLWB(nvm(8)),
		SFence(),
	)
	s := Summarize(NewReader(&tr))
	if s.Records != tr.Len() {
		t.Errorf("records = %d, want %d", s.Records, tr.Len())
	}
	if s.Loads != 2 || s.PersistentLoads != 1 {
		t.Errorf("loads = %d/%d persistent, want 2/1", s.Loads, s.PersistentLoads)
	}
	if s.Stores != 4 || s.PersistentStores != 3 {
		t.Errorf("stores = %d/%d persistent, want 4/3", s.Stores, s.PersistentStores)
	}
	if s.Transactions != 2 {
		t.Errorf("transactions = %d, want 2", s.Transactions)
	}
	if s.MaxTxStores != 2 {
		t.Errorf("MaxTxStores = %d, want 2", s.MaxTxStores)
	}
	if s.CLWBs != 1 || s.SFences != 1 {
		t.Errorf("clwb/sfence = %d/%d, want 1/1", s.CLWBs, s.SFences)
	}
	if s.Instructions != 4+12 {
		t.Errorf("Instructions = %d, want 16", s.Instructions)
	}
}

// validate drives a StreamValidator over recs, returning the first
// violation.
func validate(recs []Record) error {
	var v StreamValidator
	for _, r := range recs {
		if err := v.Check(r); err != nil {
			return err
		}
	}
	return v.Finish()
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	var tr Trace
	tr.Append(
		Compute(2),
		Load(dram(8)),
		TxBegin(1), Store(nvm(8), 1), TxEnd(1),
		Store(dram(8), 9), // volatile store outside tx is fine
		TxBegin(2), Store(nvm(16), 2), TxEnd(2),
	)
	if err := validate(tr.Records); err != nil {
		t.Fatalf("validator rejected well-formed trace: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"nested begin", []Record{TxBegin(1), TxBegin(2)}},
		{"end without begin", []Record{TxEnd(1)}},
		{"mismatched end", []Record{TxBegin(1), TxEnd(2)}},
		{"non-increasing ids", []Record{TxBegin(2), TxEnd(2), TxBegin(2), TxEnd(2)}},
		{"persistent store outside tx", []Record{Store(nvm(8), 1)}},
		{"unterminated tx", []Record{TxBegin(1), Store(nvm(8), 1)}},
		{"misaligned load", []Record{Load(dram(9))}},
		{"unmapped address", []Record{Load(4)}},
		{"empty compute", []Record{Compute(0)}},
	}
	for _, c := range cases {
		if err := validate(c.recs); err == nil {
			t.Errorf("%s: validator accepted invalid trace", c.name)
		}
	}
}
