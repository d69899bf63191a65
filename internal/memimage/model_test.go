package memimage

import (
	"flag"
	"math/rand"
	"slices"
	"testing"

	"pmemaccel/internal/memaddr"
)

// model is the reference semantics of an Image: a sparse word map in
// which absent words read as zero.
type model map[uint64]uint64

func (md model) line(addr uint64) [memaddr.WordsPerLine]uint64 {
	base := memaddr.LineAddr(addr)
	var l [memaddr.WordsPerLine]uint64
	for i := range l {
		l[i] = md[base+uint64(i)*memaddr.WordSize]
	}
	return l
}

func (md model) writeLine(addr uint64, l [memaddr.WordsPerLine]uint64) {
	base := memaddr.LineAddr(addr)
	for i, w := range l {
		md[base+uint64(i)*memaddr.WordSize] = w
	}
}

func (md model) clone() model {
	c := make(model, len(md))
	for a, v := range md {
		c[a] = v
	}
	return c
}

// diffCount counts the words on which two models differ.
func diffCount(a, b model) int {
	n := 0
	for addr, v := range a {
		if b[addr] != v {
			n++
		}
	}
	for addr, v := range b {
		if _, ok := a[addr]; !ok && v != 0 {
			n++
		}
	}
	return n
}

// anchors are the addresses the model test clusters around: address 0,
// each region's base and top, the shared region and the top of the
// address space.
var anchors = []uint64{
	0,
	memaddr.DRAMBase,
	memaddr.NVMBase - memaddr.WordSize,
	memaddr.NVMBase,
	memaddr.SharedNVMBase,
	memaddr.NVMLogBase - memaddr.WordSize,
	memaddr.NVMLogBase,
	2*memaddr.NVMLogBase - memaddr.NVMBase - memaddr.WordSize,
	^uint64(0) &^ (memaddr.WordSize - 1),
}

// randAddr picks an address within two pages either side of an anchor,
// often on a page boundary and sometimes misaligned. One pick in eight
// lands instead in the first page of one of the 64 cores' private
// carvings, whose page numbers share their low bits: enough resident
// pages to grow the page index and crowd its probe runs.
func randAddr(r *rand.Rand) uint64 {
	if r.Intn(8) == 0 {
		c := r.Intn(memaddr.MaxCores)
		carve := [...]memaddr.Range{memaddr.PerCoreNVM(c), memaddr.PerCoreDRAM(c), memaddr.PerCoreLog(c)}[r.Intn(3)]
		return carve.Base + uint64(r.Intn(pageSize))&^(memaddr.WordSize-1)
	}
	a := anchors[r.Intn(len(anchors))]
	switch r.Intn(4) {
	case 0: // a word just either side of a page boundary
		a = a&^(pageSize-1) + uint64(r.Intn(3))*pageSize - memaddr.WordSize*uint64(r.Intn(2))
	default:
		a += uint64(r.Intn(4*pageSize)) - 2*pageSize
	}
	if r.Intn(4) != 0 {
		a = memaddr.WordAddr(a)
	}
	return a
}

func randValue(r *rand.Rand) uint64 {
	if r.Intn(4) == 0 {
		return 0
	}
	return r.Uint64()
}

// spaceKeeps are the page filters Merge and First are driven with: nil
// (Merge only: every page), each memaddr space, and the persistent
// spaces.
var spaceKeeps = []func(base uint64) bool{
	nil,
	func(base uint64) bool { return memaddr.Classify(base) == memaddr.SpaceInvalid },
	func(base uint64) bool { return memaddr.Classify(base) == memaddr.SpaceDRAM },
	func(base uint64) bool { return memaddr.Classify(base) == memaddr.SpaceNVM },
	func(base uint64) bool { return memaddr.Classify(base) == memaddr.SpaceNVMLog },
	memaddr.IsPersistent,
}

// kept reports whether keep accepts addr's page.
func kept(keep func(base uint64) bool, addr uint64) bool {
	return keep == nil || keep(addr&^(pageSize-1))
}

// check asserts that img matches md in every observable: Len, ForEach
// (ascending, exactly the written words), First under every space
// filter, and reads at addr.
func check(t *testing.T, step int, name string, img *Image, md model, addr uint64) {
	t.Helper()
	if img.Len() != len(md) {
		t.Fatalf("step %d: %s.Len() = %d, model has %d words", step, name, img.Len(), len(md))
	}
	type lowest struct {
		addr  uint64
		found bool
	}
	lows := make([]lowest, len(spaceKeeps))
	for a := range md {
		for k, keep := range spaceKeeps[1:] {
			if l := &lows[k+1]; kept(keep, a) && (!l.found || a < l.addr) {
				*l = lowest{a, true}
			}
		}
	}
	for k, keep := range spaceKeeps[1:] {
		if got, ok := img.First(keep); ok != lows[k+1].found || got != lows[k+1].addr {
			t.Fatalf("step %d: %s.First(filter %d) = %#x, %v; model has %+v", step, name, k+1, got, ok, lows[k+1])
		}
	}
	n := 0
	var prev uint64
	img.ForEach(func(a, v uint64) {
		if n > 0 && a <= prev {
			t.Fatalf("step %d: %s.ForEach visited %#x after %#x", step, name, a, prev)
		}
		want, ok := md[a]
		if !ok || want != v {
			t.Fatalf("step %d: %s.ForEach visited %#x=%#x, model has %#x (present %v)", step, name, a, v, want, ok)
		}
		prev = a
		n++
	})
	if n != len(md) {
		t.Fatalf("step %d: %s.ForEach visited %d words, model has %d", step, name, n, len(md))
	}
	if got, want := img.ReadWord(addr), md[memaddr.WordAddr(addr)]; got != want {
		t.Fatalf("step %d: %s.ReadWord(%#x) = %#x, model %#x", step, name, addr, got, want)
	}
	if got, want := img.ReadLine(addr), md.line(addr); got != want {
		t.Fatalf("step %d: %s.ReadLine(%#x) = %v, model %v", step, name, addr, got, want)
	}
}

// quickChecks reads testing/quick's -quickchecks flag (default 100), so
// one flag raises the operation count of every model test.
func quickChecks() int {
	return flag.Lookup("quickchecks").Value.(flag.Getter).Get().(int)
}

// TestModelEquivalence drives two images and a reference map model
// through a seeded random sequence of every mutating operation and
// checks every observable after every step: 120 steps per -quickchecks,
// 12 000 by default.
func TestModelEquivalence(t *testing.T) {
	steps := 120 * quickChecks()
	r := rand.New(rand.NewSource(15))
	imgs := [2]*Image{New(), NewSized(3 * wordsPerPage)}
	mds := [2]model{{}, {}}
	for step := 0; step < steps; step++ {
		i := r.Intn(2)
		img, md := imgs[i], mds[i]
		addr := randAddr(r)
		switch op := r.Intn(100); {
		case op < 35:
			v := randValue(r)
			img.WriteWord(addr, v)
			md[memaddr.WordAddr(addr)] = v
		case op < 55:
			var l [memaddr.WordsPerLine]uint64
			for w := range l {
				l[w] = randValue(r)
			}
			img.WriteLine(addr, l)
			md.writeLine(addr, l)
		case op < 72:
			img.CopyLine(imgs[1-i], addr)
			md.writeLine(addr, mds[1-i].line(addr))
		case op < 75:
			// Page-at-a-time seeding from the other image, through one
			// of the space filters.
			keep := spaceKeeps[r.Intn(len(spaceKeeps))]
			img.Merge(imgs[1-i], keep)
			for a, v := range mds[1-i] {
				if kept(keep, a) {
					md[a] = v
				}
			}
		case op < 80:
			// Snapshot, then mutate the original: the copy must not
			// see the write, and carries on as image i.
			snap, snapMD := img.Snapshot(), md.clone()
			v := randValue(r) | 1
			img.WriteWord(addr, v)
			md[memaddr.WordAddr(addr)] = v
			check(t, step, "original", img, md, addr)
			imgs[i], mds[i] = snap, snapMD
		case op < 81:
			// Start over, so the images stay small enough to check in
			// full every step.
			if r.Intn(2) == 0 {
				imgs[i] = New()
			} else {
				imgs[i] = NewSized(r.Intn(4 * wordsPerPage))
			}
			mds[i] = model{}
		default:
			// Reads only: check below covers ReadWord and ReadLine,
			// including addresses in pages never touched.
		}
		for j := range imgs {
			check(t, step, [2]string{"a", "b"}[j], imgs[j], mds[j], randAddr(r))
		}
		a, b := imgs[0], imgs[1]
		n := diffCount(mds[0], mds[1])
		if a.Equal(b) != (n == 0) || b.Equal(a) != (n == 0) {
			t.Fatalf("step %d: Equal = %v, model has %d diffs", step, a.Equal(b), n)
		}
		diffs := a.Diffs(b, 0)
		if len(diffs) != n {
			t.Fatalf("step %d: Diffs found %d, model has %d", step, len(diffs), n)
		}
		for k, d := range diffs {
			if k > 0 && d.Addr <= diffs[k-1].Addr {
				t.Fatalf("step %d: Diffs not ascending at %#x after %#x", step, d.Addr, diffs[k-1].Addr)
			}
			if d.A != mds[0][d.Addr] || d.B != mds[1][d.Addr] || d.A == d.B {
				t.Fatalf("step %d: diff %+v, model %#x vs %#x", step, d, mds[0][d.Addr], mds[1][d.Addr])
			}
		}
		if max := 3; n > max {
			if got := a.Diffs(b, max); !slices.Equal(got, diffs[:max]) {
				t.Fatalf("step %d: Diffs(max %d) = %+v, want the first %d of %+v", step, max, got, max, diffs[:max])
			}
		}
		var nvm []Diff
		for _, d := range diffs {
			if memaddr.Classify(d.Addr) == memaddr.SpaceNVM {
				nvm = append(nvm, d)
			}
		}
		if got := a.SpaceDiffs(b, memaddr.SpaceNVM, 0); !slices.Equal(got, nvm) {
			t.Fatalf("step %d: SpaceDiffs(NVM) = %+v, want the NVM subset %+v", step, got, nvm)
		}
		if got := a.DiffLimit(b, 0); got != n {
			t.Fatalf("step %d: DiffLimit = %d, model has %d diffs", step, got, n)
		}
	}
}
