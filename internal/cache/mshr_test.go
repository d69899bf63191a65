package cache

import (
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
)

// collidingLines returns line addresses whose home slots, in tables of
// 8 to 64 slots, sit on the last two slots or on slot 0, so probe runs
// wrap past the end of the table and deletes shift keys back across it.
func collidingLines() []uint64 {
	var lines []uint64
	for size := 8; size <= 64; size *= 2 {
		t := newMSHRTable(size)
		top, bottom := 0, 0
		for line := memaddr.NVMBase; top < 6 || bottom < 3; line += memaddr.LineSize {
			switch h := t.home(line); {
			case h >= size-2 && top < 6:
				top++
			case h == 0 && bottom < 3:
				bottom++
			default:
				continue
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// checkProbeRuns verifies the open-addressing invariant: every key is
// reachable from its home slot without crossing an empty slot, and the
// count matches the occupied slots.
func checkProbeRuns(t *mshrTable) bool {
	mask, n := len(t.slots)-1, 0
	for i, s := range t.slots {
		if s.line == 0 {
			continue
		}
		n++
		for j := t.home(s.line); j != i; j = (j + 1) & mask {
			if t.slots[j].line == 0 {
				return false
			}
		}
	}
	return n == t.n
}

// sameWaiters compares two waiter lists by their cores, which the model
// test makes unique per operation.
func sameWaiters(a, b []waiter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].core != b[i].core {
			return false
		}
	}
	return true
}

// TestQuickMSHRTableMatchesMap drives the MSHR table and a Go map with
// the same insert-or-merge, find and remove sequences over a pool of
// colliding lines, starting from a table small enough to grow, and
// compares every answer. Each op picks the operation (low two
// bits) and the line; the live-key cap makes the table fill, grow and
// drain within one sequence.
func TestQuickMSHRTableMatchesMap(t *testing.T) {
	pool := collidingLines()
	f := func(ops []uint16, limit uint8) bool {
		tab := newMSHRTable(8)
		ref := map[uint64][]waiter{}
		maxLive := 1 + int(limit%24)
		for i, op := range ops {
			line := pool[int(op>>2)%len(pool)]
			w := waiter{core: i}
			switch op & 3 {
			case 0, 1: // a miss: merge into the line's fill, or start one
				if ws := tab.find(line); ws != nil {
					*ws = append(*ws, w)
					ref[line] = append(ref[line], w)
				} else if len(ref) < maxLive {
					tab.insert(line, []waiter{w})
					ref[line] = []waiter{w}
				}
			case 2: // the fill completes
				got, want := tab.take(line), ref[line]
				delete(ref, line)
				if !sameWaiters(got, want) {
					return false
				}
			case 3:
				ws, want := tab.find(line), ref[line]
				if (ws == nil) != (want == nil) || ws != nil && !sameWaiters(*ws, want) {
					return false
				}
			}
			if tab.n != len(ref) || !checkProbeRuns(&tab) {
				return false
			}
		}
		for _, line := range pool {
			ws, want := tab.find(line), ref[line]
			if (ws == nil) != (want == nil) || ws != nil && !sameWaiters(*ws, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRTableWrapAroundDelete pins one wrap-around case by hand: two
// keys homed on the last slot of an 8-slot table (the second wraps to
// slot 0) and one key homed on slot 0 (pushed to slot 1). Deleting the
// first must shift the wrapped key back to the last slot and leave the
// slot-0 key where a lookup from its home finds it.
func TestMSHRTableWrapAroundDelete(t *testing.T) {
	tab := newMSHRTable(8)
	var last, first []uint64
	for line := memaddr.NVMBase; len(last) < 2 || len(first) < 1; line += memaddr.LineSize {
		switch tab.home(line) {
		case 7:
			last = append(last, line)
		case 0:
			first = append(first, line)
		}
	}
	a, b, c := last[0], last[1], first[0]
	tab.insert(a, []waiter{{core: 1}})
	tab.insert(b, []waiter{{core: 2}})
	tab.insert(c, []waiter{{core: 3}})
	if tab.slots[7].line != a || tab.slots[0].line != b || tab.slots[1].line != c {
		t.Fatalf("probe layout %#x, want a, b, c at slots 7, 0, 1", []uint64{tab.slots[7].line, tab.slots[0].line, tab.slots[1].line})
	}
	if ws := tab.take(a); len(ws) != 1 || ws[0].core != 1 {
		t.Fatalf("take(a) = %v", ws)
	}
	if tab.slots[7].line != b || tab.slots[0].line != c || tab.slots[1].line != 0 {
		t.Fatalf("after delete: slots 7, 0, 1 hold %#x, want b, c, empty", []uint64{tab.slots[7].line, tab.slots[0].line, tab.slots[1].line})
	}
	for _, k := range []struct {
		line uint64
		core int
	}{{b, 2}, {c, 3}} {
		if ws := tab.find(k.line); ws == nil || (*ws)[0].core != k.core {
			t.Fatalf("find(%#x) lost after the wrap-around shift", k.line)
		}
	}
	if !checkProbeRuns(&tab) {
		t.Fatal("probe-run invariant broken")
	}
}
