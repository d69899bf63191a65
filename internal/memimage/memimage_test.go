package memimage

import (
	"runtime"
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
)

func TestUnwrittenWordsReadZero(t *testing.T) {
	m := New()
	if m.ReadWord(memaddr.NVMBase) != 0 {
		t.Fatal("fresh image returned nonzero word")
	}
}

func TestWriteReadWord(t *testing.T) {
	m := New()
	m.WriteWord(memaddr.NVMBase+8, 0xdeadbeef)
	if got := m.ReadWord(memaddr.NVMBase + 8); got != 0xdeadbeef {
		t.Fatalf("ReadWord = %#x, want 0xdeadbeef", got)
	}
}

func TestMisalignedAccessAlignsDown(t *testing.T) {
	m := New()
	m.WriteWord(100, 7) // aligns to 96
	if got := m.ReadWord(96); got != 7 {
		t.Fatalf("ReadWord(96) = %d, want 7", got)
	}
	if got := m.ReadWord(103); got != 7 {
		t.Fatalf("ReadWord(103) = %d, want 7 (same word)", got)
	}
}

func TestLineRoundTrip(t *testing.T) {
	m := New()
	var line [memaddr.WordsPerLine]uint64
	for i := range line {
		line[i] = uint64(i * 11)
	}
	m.WriteLine(memaddr.NVMBase+128, line)
	got := m.ReadLine(memaddr.NVMBase + 128 + 24) // any addr in line
	if got != line {
		t.Fatalf("ReadLine = %v, want %v", got, line)
	}
}

func TestCopyLine(t *testing.T) {
	src, dst := New(), New()
	for i := 0; i < memaddr.WordsPerLine; i++ {
		src.WriteWord(memaddr.NVMBase+uint64(i*8), uint64(i+1))
	}
	dst.CopyLine(src, memaddr.NVMBase+16)
	for i := 0; i < memaddr.WordsPerLine; i++ {
		if got := dst.ReadWord(memaddr.NVMBase + uint64(i*8)); got != uint64(i+1) {
			t.Fatalf("word %d = %d after CopyLine, want %d", i, got, i+1)
		}
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	m := New()
	m.WriteWord(8, 1)
	s := m.Snapshot()
	m.WriteWord(8, 2)
	m.WriteWord(16, 3)
	if s.ReadWord(8) != 1 || s.ReadWord(16) != 0 {
		t.Fatal("snapshot mutated by later writes")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := New(), New()
	a.WriteWord(8, 1)
	b.WriteWord(8, 1)
	if !a.Equal(b) {
		t.Fatal("identical images not Equal")
	}
	b.WriteWord(16, 9)
	if a.Equal(b) {
		t.Fatal("different images Equal")
	}
	diffs := a.Diffs(b, 10)
	if len(diffs) != 1 || diffs[0].Addr != 16 || diffs[0].A != 0 || diffs[0].B != 9 {
		t.Fatalf("Diffs = %+v, want one diff at 16 (0 vs 9)", diffs)
	}
}

func TestExplicitZeroWriteEqualsAbsent(t *testing.T) {
	a, b := New(), New()
	a.WriteWord(8, 0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("explicit zero should compare equal to unwritten")
	}
}

func TestDiffLimitStopsEarly(t *testing.T) {
	a, b := New(), New()
	for i := uint64(0); i < 100; i++ {
		a.WriteWord(i*8, i+1)
	}
	if got := a.DiffLimit(b, 5); got != 5 {
		t.Fatalf("DiffLimit(5) = %d, want 5", got)
	}
	if got := a.DiffLimit(b, 0); got != 100 {
		t.Fatalf("DiffLimit(0) = %d, want 100", got)
	}
}

func TestForEachVisitsAllWrites(t *testing.T) {
	m := New()
	want := map[uint64]uint64{8: 1, 16: 2, 24: 3}
	for a, v := range want {
		m.WriteWord(a, v)
	}
	got := map[uint64]uint64{}
	m.ForEach(func(a, v uint64) { got[a] = v })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d words, want %d", len(got), len(want))
	}
	for a, v := range want {
		if got[a] != v {
			t.Fatalf("ForEach got[%d] = %d, want %d", a, got[a], v)
		}
	}
}

// Property: a line write followed by word reads reconstructs the line, and
// word writes followed by a line read reconstructs the words.
func TestQuickLineWordAgreement(t *testing.T) {
	f := func(base uint64, line [memaddr.WordsPerLine]uint64) bool {
		base = memaddr.LineAddr(base)
		m := New()
		m.WriteLine(base, line)
		for i := range line {
			if m.ReadWord(base+uint64(i)*memaddr.WordSize) != line[i] {
				return false
			}
		}
		n := New()
		for i := range line {
			n.WriteWord(base+uint64(i)*memaddr.WordSize, line[i])
		}
		return n.ReadLine(base) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot is Equal to the original, and Diff of an image with
// itself is empty.
func TestQuickSnapshotEqual(t *testing.T) {
	f := func(writes []struct {
		A uint64
		V uint64
	}) bool {
		m := New()
		for _, w := range writes {
			m.WriteWord(w.A, w.V)
		}
		s := m.Snapshot()
		return m.Equal(s) && s.Equal(m) && len(m.Diffs(s, 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sink keeps allocation-test results alive.
var sink *Image

func TestResidentAccessAllocationFree(t *testing.T) {
	src, dst := New(), New()
	const addr = memaddr.NVMBase + 3*pageSize + 40
	src.WriteWord(addr, 1)
	dst.WriteWord(addr, 2)
	var line [memaddr.WordsPerLine]uint64
	var w uint64
	for name, fn := range map[string]func(){
		"ReadWord":  func() { w = src.ReadWord(addr) },
		"WriteWord": func() { dst.WriteWord(addr, w) },
		"ReadLine":  func() { line = src.ReadLine(addr) },
		"WriteLine": func() { dst.WriteLine(addr, line) },
		"CopyLine":  func() { dst.CopyLine(src, addr) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s on a resident page allocated %v times, want 0", name, a)
		}
	}
}

// fill writes n consecutive words starting at the NVM base.
func fill(m *Image, n int) {
	for i := 0; i < n; i++ {
		m.WriteWord(memaddr.NVMBase+uint64(i)*memaddr.WordSize, uint64(i))
	}
}

// An image's allocation count does not grow with its page count: the
// Image, the page index's table, the ordered page list and one slab make
// 4; one allocation per page would make 200 more here. Grown from New,
// the image allocates 23 times for 200 pages: the Image, 6 slab chunks
// (8, 8, 16, 32, 64 and 128 pages), 9 doublings of the page list and 7
// of the index table (8 to 512 slots, at most half full).
func TestSlabAllocation(t *testing.T) {
	const pages = 200
	const n = pages * wordsPerPage
	// The first collection in a process starts the runtime's mark
	// workers, allocations that would land in the first count.
	runtime.GC()
	if a := testing.AllocsPerRun(5, func() {
		m := NewSized(n)
		fill(m, n)
		sink = m
	}); a > 4 {
		t.Errorf("NewSized(%d) plus filling %d pages allocated %v times, want <= 4", n, pages, a)
	}
	m := NewSized(n)
	fill(m, n)
	if a := testing.AllocsPerRun(5, func() { sink = m.Snapshot() }); a > 4 {
		t.Errorf("Snapshot of %d pages allocated %v times, want <= 4", pages, a)
	}
	// Growth takes pages from chunks, not one page at a time.
	if a := testing.AllocsPerRun(5, func() {
		m := New()
		fill(m, n)
		sink = m
	}); a > 23 {
		t.Errorf("New plus filling %d pages allocated %v times, want <= 23", pages, a)
	}
	// Seeding merges whole pages into the slab it was sized for.
	if a := testing.AllocsPerRun(5, func() {
		c := NewSized(n)
		c.Merge(m, nil)
		c.Merge(m, nil)
		sink = c
	}); a > 4 {
		t.Errorf("NewSized(%d) plus two Merges of %d pages allocated %v times, want <= 4", n, pages, a)
	}
}

// Pages occupy 4 KiB of address space and never straddle a memaddr
// space, so every page belongs to exactly one Space.
func TestPagesNeverStraddleSpaces(t *testing.T) {
	for _, base := range []uint64{memaddr.DRAMBase, memaddr.NVMBase, memaddr.NVMLogBase, memaddr.SharedNVMBase} {
		if base%pageSize != 0 {
			t.Errorf("region base %#x is not %d-byte aligned", base, pageSize)
		}
	}
}
