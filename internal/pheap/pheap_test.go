package pheap

import (
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
)

func testRegion() memaddr.Range {
	return memaddr.Range{Base: memaddr.NVMBase, Size: 1 << 16}
}

func TestAllocReturnsAlignedDisjointBlocks(t *testing.T) {
	h := New(testRegion())
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		addr := mustAlloc(t, h, 3)
		if !memaddr.IsWordAligned(addr) {
			t.Fatalf("alloc %d: addr %#x not aligned", i, addr)
		}
		for w := uint64(0); w < 3; w++ {
			wa := addr + w*8
			if seen[wa] {
				t.Fatalf("alloc %d: word %#x double-allocated", i, wa)
			}
			seen[wa] = true
		}
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	h := New(testRegion())
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := h.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := New(memaddr.Range{Base: memaddr.NVMBase, Size: 64})
	if _, err := h.Alloc(8); err != nil {
		t.Fatalf("first alloc failed: %v", err)
	}
	if _, err := h.Alloc(1); err == nil {
		t.Fatal("alloc past region end succeeded")
	}
}

// mustAlloc is Alloc for tests whose region cannot run out.
func mustAlloc(t *testing.T, h *Heap, words int) uint64 {
	t.Helper()
	addr, err := h.Alloc(words)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestHighWater(t *testing.T) {
	h := New(testRegion())
	mustAlloc(t, h, 10)
	if h.HighWater() != memaddr.NVMBase+80 {
		t.Fatalf("HighWater = %#x, want %#x", h.HighWater(), memaddr.NVMBase+80)
	}
	// A failed allocation must not advance the high water mark.
	hw := h.HighWater()
	if _, err := h.Alloc(1 << 20); err == nil {
		t.Fatal("alloc past region end succeeded")
	}
	if h.HighWater() != hw {
		t.Fatal("failed alloc advanced high-water mark")
	}
}

// Property: blocks never overlap and always stay inside the region,
// under arbitrary allocation sizes.
func TestQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		region := testRegion()
		h := New(region)
		type block struct {
			addr  uint64
			words int
		}
		var live []block
		for _, sz := range sizes {
			words := int(sz%16) + 1
			addr, err := h.Alloc(words)
			if err != nil {
				continue // exhaustion is fine
			}
			if addr < region.Base || addr+uint64(words)*8 > region.End() {
				return false
			}
			for _, b := range live {
				if addr < b.addr+uint64(b.words)*8 && b.addr < addr+uint64(words)*8 {
					return false // overlap
				}
			}
			live = append(live, block{addr, words})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
