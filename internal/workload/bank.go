package workload

import (
	"fmt"

	"pmemaccel/internal/pheap"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
)

// bank is an OLTP-style extension workload beyond the paper's Table 3: a
// persistent array of account balances plus an append-only audit list.
// Each transaction transfers a random amount between two accounts AND
// appends an audit record — a multi-structure durable update whose
// atomicity is directly checkable: the sum of balances is conserved by
// every committed prefix, and every audit record matches a transfer that
// happened. A torn transfer (debit without credit, or transfer without
// audit) is exactly the corruption persistence mechanisms must prevent.
//
// Audit record layout (4 words): 0 from, 1 to, 2 amount, 3 next.
type bank struct {
	rec  *trace.Recorder
	heap *pheap.Heap
	rng  *sim.RNG

	accounts  uint64 // balance array base
	nAccounts int
	auditHead uint64 // persistent pointer to the newest audit record
	transfers int
	total     uint64 // conserved sum of balances
}

const (
	bankAuditWords = 4
	baFrom         = 0
	baTo           = 1
	baAmount       = 2
	baNext         = 3
	// bankInitialBalance seeds every account.
	bankInitialBalance = 1000
)

func newBank(rec *trace.Recorder, hp *pheap.Heap, rng *sim.RNG) *bank {
	return &bank{rec: rec, heap: hp, rng: rng}
}

func (b *bank) balanceAddr(i int) uint64 { return b.accounts + uint64(i)*8 }

func (b *bank) setup(n int) error {
	if n < 2 {
		return fmt.Errorf("bank needs at least 2 accounts, got %d", n)
	}
	b.nAccounts = n
	base, err := b.heap.Alloc(n)
	if err != nil {
		return err
	}
	b.accounts = base
	head, err := b.heap.Alloc(1)
	if err != nil {
		return err
	}
	b.auditHead = head
	b.rec.Store(b.auditHead, 0)
	for i := 0; i < n; i++ {
		b.rec.Store(b.balanceAddr(i), bankInitialBalance)
	}
	b.total = uint64(n) * bankInitialBalance
	return nil
}

// transfer moves amount between two distinct accounts and appends the
// audit record, all in one durable transaction.
func (b *bank) transfer(from, to int, amount uint64) error {
	node, err := b.heap.Alloc(bankAuditWords)
	if err != nil {
		return err
	}
	b.rec.Compute(CostAlloc)
	b.rec.TxBegin()
	fromBal := b.rec.Load(b.balanceAddr(from))
	toBal := b.rec.Load(b.balanceAddr(to))
	if amount > fromBal {
		amount = fromBal // transfers never overdraw
	}
	b.rec.Compute(4)
	b.rec.Store(b.balanceAddr(from), fromBal-amount)
	b.rec.Store(b.balanceAddr(to), toBal+amount)
	oldHead := b.rec.Load(b.auditHead)
	b.rec.Store(node+baFrom*8, uint64(from))
	b.rec.Store(node+baTo*8, uint64(to))
	b.rec.Store(node+baAmount*8, amount)
	b.rec.Store(node+baNext*8, oldHead)
	b.rec.Store(b.auditHead, node)
	b.rec.TxEnd()
	b.transfers++
	return nil
}

func (b *bank) op(searches int) error {
	b.rec.Compute(CostOpSetup)
	for s := 0; s < searches; s++ {
		// Balance inquiry: one independent load.
		b.rec.Load(b.balanceAddr(b.rng.Intn(b.nAccounts)))
	}
	from := b.rng.Intn(b.nAccounts)
	to := b.rng.Intn(b.nAccounts - 1)
	if to >= from {
		to++
	}
	return b.transfer(from, to, b.rng.Uint64()%200+1)
}

func (b *bank) expect() expected { return expected{n: int64(b.transfers)} }

func (b *bank) describe() Meta {
	return Meta{
		ArrayBase: b.accounts, ArrayLen: b.nAccounts,
		RootPtr: b.auditHead,
	}
}
