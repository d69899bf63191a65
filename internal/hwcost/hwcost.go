// Package hwcost reproduces Table 1 — the hardware-overhead summary of
// the persistent memory accelerator — as a function of the configuration,
// following the derivation of §4.4: a 4 KB transaction cache with one
// 64-byte line per entry holds 64 in-flight transactions, so transaction
// ids need ceil(log2(64)) = 6 bits, the per-line additions in the TC data
// array are TxID + a 2-state... (state fits in 2 bits; the paper counts
// 1 bit by folding available into the pointer arithmetic — we report the
// paper's accounting and note the delta) and the only change to the
// existing hierarchy is the 1-bit P/V flag per line.
package hwcost

import (
	"fmt"
	"math/bits"
	"strings"

	"pmemaccel/internal/memaddr"
)

// Config is the subset of the machine that determines hardware cost. A
// TC entry and a hierarchy line are both memaddr.LineSize bytes.
type Config struct {
	Cores    int
	TCBytes  int // per-core transaction cache capacity
	L1Bytes  int // per core
	L2Bytes  int // per core
	LLCBytes int // shared
}

// Row is one Table 1 line.
type Row struct {
	Component string
	Type      string
	Bits      int    // per-instance bits (0 when the size is free-form)
	Size      string // human-readable size expression
}

// TxIDBits returns the transaction-id width: enough to name every
// possible in-flight transaction in one core's TC (§4.4: one line per
// transaction).
func (c Config) TxIDBits() int {
	if c.Entries() <= 1 {
		return 1
	}
	return bits.Len(uint(c.Entries() - 1))
}

// Entries returns the TC data-array entry count per core.
func (c Config) Entries() int { return c.TCBytes / memaddr.LineSize }

// PointerBits returns head/tail pointer width.
func (c Config) PointerBits() int {
	if c.Entries() <= 1 {
		return 1
	}
	return bits.Len(uint(c.Entries() - 1))
}

// HierarchyLines returns the total line count of the existing hierarchy
// (per-core L1+L2 plus the shared LLC) that must carry the P/V flag.
func (c Config) HierarchyLines() int {
	return (c.L1Bytes+c.L2Bytes)*c.Cores/memaddr.LineSize + c.LLCBytes/memaddr.LineSize
}

// Rows produces the Table 1 summary.
func (c Config) Rows() []Row {
	tx := c.TxIDBits()
	return []Row{
		{"CPU TxID/Mode register", "flip-flops", tx, fmt.Sprintf("%d bits", tx)},
		{"CPU Next TxID register", "flip-flops", tx, fmt.Sprintf("%d bits", tx)},
		{"Cache P/V flag", "SRAM", 1, "1 bit/line"},
		{"TxID in TC data array", "STT-RAM", tx, fmt.Sprintf("%d bits/entry", tx)},
		{"State in TC data array", "STT-RAM", 1, "1 bit/entry"},
		{"head/tail pointer", "flip-flops", 2 * c.PointerBits(), fmt.Sprintf("2 x %d bits", c.PointerBits())},
		{"TC data array", "STT-RAM", c.TCBytes * 8, fmt.Sprintf("%d KB/core", c.TCBytes>>10)},
	}
}

// Totals summarizes the aggregate overheads the paper quotes in §4.4.
type Totals struct {
	// PerTCLineBits is the metadata added per TC data-array line
	// (TxID + state).
	PerTCLineBits int
	// PerHierarchyLineBits is the metadata added per existing cache
	// line (P/V).
	PerHierarchyLineBits int
	// HierarchyOverheadBits is the total P/V bits across L1/L2/LLC.
	HierarchyOverheadBits int
	// TCTotalBytes is the added nonvolatile storage across all cores.
	TCTotalBytes int
	// TCvsLLCPercent is the TC storage as a percentage of the LLC.
	TCvsLLCPercent float64
}

// Summarize computes the totals.
func (c Config) Summarize() Totals {
	return Totals{
		PerTCLineBits:         c.TxIDBits() + 1,
		PerHierarchyLineBits:  1,
		HierarchyOverheadBits: c.HierarchyLines(),
		TCTotalBytes:          c.TCBytes * c.Cores,
		TCvsLLCPercent:        float64(c.TCBytes*c.Cores) / float64(c.LLCBytes) * 100,
	}
}

// Render prints the table and totals in the paper's layout.
func (c Config) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Summary of major hardware overhead\n")
	fmt.Fprintf(&b, "%-26s %-12s %s\n", "Component", "Type", "Size")
	for _, r := range c.Rows() {
		fmt.Fprintf(&b, "%-26s %-12s %s\n", r.Component, r.Type, r.Size)
	}
	t := c.Summarize()
	fmt.Fprintf(&b, "\nPer TC line metadata: %d bits (TxID + state)\n", t.PerTCLineBits)
	fmt.Fprintf(&b, "Existing hierarchy:   +%d bit/line (P/V), %d bits total\n",
		t.PerHierarchyLineBits, t.HierarchyOverheadBits)
	fmt.Fprintf(&b, "TC storage:           %d KB across %d cores (%.2f%% of the %d MB LLC)\n",
		t.TCTotalBytes>>10, c.Cores, t.TCvsLLCPercent, c.LLCBytes>>20)
	return b.String()
}
