// Package trace defines the memory-reference trace format that connects the
// workload layer to the timing simulator, together with a Recorder that
// workloads use to emit well-formed traces and a Validator used by tests.
//
// A trace is the program as the memory system sees it: interleaved compute
// batches, 64-bit loads and stores, transaction boundaries, and (for the
// software-persistence mechanism only) explicit cache-line write-backs and
// store fences. Workloads emit plain traces; the mechanism layer rewrites
// them (e.g. injecting log writes) before they reach the core model.
package trace

import "fmt"

// Kind enumerates trace record types.
type Kind uint8

const (
	// KindCompute is a batch of N non-memory instructions.
	KindCompute Kind = iota
	// KindLoad is a 64-bit load from Addr.
	KindLoad
	// KindStore is a 64-bit store of Value to Addr.
	KindStore
	// KindTxBegin marks the start of durable transaction TxID
	// (compiled from TX_BEGIN in the paper's software interface).
	KindTxBegin
	// KindTxEnd marks the commit of transaction TxID (TX_END).
	KindTxEnd
	// KindCLWB writes back the cache line containing Addr towards
	// memory without invalidating it. Only the software-persistence
	// mechanism emits these.
	KindCLWB
	// KindCLFlush writes back and invalidates the line (the pre-clwb
	// x86 clflush): the next access to the line misses again.
	KindCLFlush
	// KindSFence orders stores: the core may not proceed until all
	// earlier stores and write-backs are globally visible (durable, for
	// persistent addresses). Only the software mechanism emits these.
	KindSFence
)

// String returns the mnemonic for the record kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindTxBegin:
		return "tx_begin"
	case KindTxEnd:
		return "tx_end"
	case KindCLWB:
		return "clwb"
	case KindCLFlush:
		return "clflush"
	case KindSFence:
		return "sfence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one trace entry. Field use depends on Kind:
//
//	Compute:        N = instruction count
//	Load:           Addr
//	Store:          Addr, Value
//	TxBegin, TxEnd: TxID
//	CLWB:           Addr (any address within the line)
//	SFence:         no operands
//
// The fields are laid out so a record packs into 32 bytes: Kind, Dep and
// N share the first word.
type Record struct {
	Kind Kind
	// Dep marks a load whose address depends on an earlier load's data
	// (pointer chasing): it cannot issue while any load is outstanding.
	// Independent loads overlap up to the core's MLP window — the
	// trace-level approximation of out-of-order execution.
	Dep   bool
	N     int32
	Addr  uint64
	Value uint64
	TxID  uint64
}

// Instructions returns how many dynamic instructions the record represents
// in the IPC accounting: Compute counts N, every other record counts 1
// (a load, store, flush, fence or transaction primitive is one
// instruction).
func (r Record) Instructions() uint64 {
	if r.Kind == KindCompute {
		return uint64(r.N)
	}
	return 1
}

// Convenience constructors keep workload code readable.

// Compute returns a compute batch record of n instructions.
func Compute(n int) Record { return Record{Kind: KindCompute, N: int32(n)} }

// Load returns an independent load record.
func Load(addr uint64) Record { return Record{Kind: KindLoad, Addr: addr} }

// LoadDep returns a dependent (pointer-chase) load record.
func LoadDep(addr uint64) Record { return Record{Kind: KindLoad, Addr: addr, Dep: true} }

// Store returns a store record.
func Store(addr, value uint64) Record {
	return Record{Kind: KindStore, Addr: addr, Value: value}
}

// TxBegin returns a transaction-begin record.
func TxBegin(id uint64) Record { return Record{Kind: KindTxBegin, TxID: id} }

// TxEnd returns a transaction-commit record.
func TxEnd(id uint64) Record { return Record{Kind: KindTxEnd, TxID: id} }

// CLWB returns a cache-line write-back record.
func CLWB(addr uint64) Record { return Record{Kind: KindCLWB, Addr: addr} }

// CLFlush returns a cache-line flush-and-invalidate record.
func CLFlush(addr uint64) Record { return Record{Kind: KindCLFlush, Addr: addr} }

// SFence returns a store-fence record.
func SFence() Record { return Record{Kind: KindSFence} }
