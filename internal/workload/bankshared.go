package workload

import (
	"fmt"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// bankShared is the contended variant of bank: the private balance array
// and audit list are kept per core exactly as in bank, but a
// ContentionPct fraction of transactions instead transfer between
// accounts of a shared array every core addresses at the same fixed
// location (memaddr.SharedNVM.Base). Those transactions collide across
// cores on real cache lines, which is the whole point: they exercise the
// conflict-detection and arbitration path of each persistence mechanism.
//
// Because traces are generated per core before the machine runs, a
// core's loads of shared accounts observe only its own prior writes;
// cross-core interaction is purely a matter of runtime timing and
// durable-commit ordering. Shared-account stores therefore carry
// self-describing tagged values — writer core, per-core sequence number,
// account index — rather than values derived from loads, so the durable
// image is checkable: each shared word must equal the value written by
// the globally last durably-committed transaction that touched it
// (System.ExpectedDurable folds committed write sets in global
// commit order), and any well-formed image holds either the initial
// balance or some core's tag.
type bankShared struct {
	rec  *trace.Recorder
	rng  *sim.RNG
	priv *bank

	core       int
	contention float64
	sharedBase uint64
	nShared    int
	counter    uint64 // private persistent word: shared-transfer count
	sharedSeq  uint64
}

// SharedTag builds the value core stores into a shared account: writer
// core in the top byte (1-based so the tag is never mistaken for the
// initial balance), per-core transfer sequence, account index low.
func SharedTag(core int, seq uint64, idx int) uint64 {
	return uint64(core+1)<<56 | (seq&0xFFFFFFFFFF)<<16 | uint64(idx)&0xFFFF
}

// SharedTagCore extracts the 1-based writer core from a tagged value, or
// 0 when v is not a tag (e.g. the initial balance).
func SharedTagCore(v uint64) int { return int(v >> 56) }

func newBankShared(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG, p Params) *bankShared {
	n := p.SharedAccounts
	if n == 0 {
		n = DefaultSharedAccounts
	}
	pct := p.ContentionPct
	if pct == 0 {
		pct = DefaultContentionPct
	}
	return &bankShared{
		rec:        rec,
		rng:        rng,
		priv:       newBank(rec, hp, rng),
		core:       p.Core,
		contention: pct,
		sharedBase: memaddr.SharedNVM.Base,
		nShared:    n,
	}
}

func (b *bankShared) sharedAddr(i int) uint64 { return b.sharedBase + uint64(i)*8 }

func (b *bankShared) setup(n int) error {
	if b.nShared < 2 {
		return fmt.Errorf("bankshared needs at least 2 shared accounts, got %d", b.nShared)
	}
	if uint64(b.nShared)*8 > memaddr.SharedNVM.Size {
		return fmt.Errorf("bankshared: %d shared accounts exceed the shared region", b.nShared)
	}
	if err := b.priv.setup(n); err != nil {
		return err
	}
	ctr, err := b.priv.heap.Alloc(1)
	if err != nil {
		return err
	}
	b.counter = ctr
	b.rec.Store(b.counter, 0)
	// Every core seeds the shared array with identical values during the
	// quiet (untraced) setup, so the per-core base images agree on the
	// overlapping region and the fold order across cores is irrelevant.
	for i := 0; i < b.nShared; i++ {
		b.rec.Store(b.sharedAddr(i), bankInitialBalance)
	}
	return nil
}

// transferShared updates two shared accounts and the private transfer
// counter in one durable transaction. The stored values are tags, not
// balances: with concurrent writers, "current balance" is undefined at
// generation time, but last-committed-writer-wins over tags is exactly
// checkable.
func (b *bankShared) transferShared(from, to int) error {
	b.rec.Compute(CostAlloc)
	b.rec.TxBegin()
	b.rec.Load(b.sharedAddr(from))
	b.rec.Load(b.sharedAddr(to))
	b.rec.Compute(4)
	seq := b.sharedSeq
	b.rec.Store(b.sharedAddr(from), SharedTag(b.core, seq, from))
	b.rec.Store(b.sharedAddr(to), SharedTag(b.core, seq, to))
	b.rec.Store(b.counter, seq+1)
	b.rec.TxEnd()
	b.sharedSeq = seq + 1
	return nil
}

func (b *bankShared) op(searches int) error {
	if b.rng.Bool(b.contention) {
		b.rec.Compute(CostOpSetup)
		for s := 0; s < searches; s++ {
			b.rec.Load(b.priv.balanceAddr(b.rng.Intn(b.priv.nAccounts)))
		}
		from := b.rng.Intn(b.nShared)
		to := b.rng.Intn(b.nShared - 1)
		if to >= from {
			to++
		}
		return b.transferShared(from, to)
	}
	return b.priv.op(searches)
}

func (b *bankShared) expect() expected {
	e := b.priv.expect()
	e.counter, e.seq, e.core = b.counter, b.sharedSeq, b.core
	return e
}

func (b *bankShared) describe() Meta {
	m := b.priv.describe()
	m.SharedBase = b.sharedBase
	m.SharedLen = b.nShared
	return m
}
