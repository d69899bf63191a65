package cache

// mshrTable holds the miss-status registers: the merged waiters of every
// line with a fill outstanding, keyed by line address. It is an
// open-addressed hash table with linear probing and backward-shift
// deletion, so a lookup never crosses a tombstone and a delete leaves
// every remaining key reachable from its home slot. Line address 0 is
// never a line (memory spaces start far above it), so a zero key marks
// an empty slot. The table doubles only when it is half full; a
// steady-state run never reallocates it.
type mshrTable struct {
	slots []mshrSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)), for Fibonacci hashing
	n     int        // occupied slots
}

type mshrSlot struct {
	line    uint64
	waiters []waiter
}

// mshrSlotsPerCore sizes a new table: room for this many outstanding
// fills per core before the first doubling (MLP 8 plus stores).
const mshrSlotsPerCore = 16

// newMSHRTable returns an empty table of at least n slots.
func newMSHRTable(n int) mshrTable {
	size, shift := 1, uint(64)
	for size < n {
		size <<= 1
		shift--
	}
	return mshrTable{slots: make([]mshrSlot, size), shift: shift}
}

// home returns line's preferred slot: the top bits of a multiplicative
// hash of its line number, so runs of consecutive lines spread out.
func (t *mshrTable) home(line uint64) int {
	return int((line >> 6) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns line's waiter list, or nil when no fill is outstanding.
// The pointer is valid until the next insert or take.
func (t *mshrTable) find(line uint64) *[]waiter {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.line == 0 {
			return nil
		}
		if s.line == line {
			return &s.waiters
		}
	}
}

// insert adds line, which must not be present, with its waiter list.
func (t *mshrTable) insert(line uint64, ws []waiter) {
	if line == 0 {
		panic("cache: MSHR insert of line address 0")
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].line != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = mshrSlot{line: line, waiters: ws}
	t.n++
}

// take removes line and returns its waiter list (nil when absent).
func (t *mshrTable) take(line uint64) []waiter {
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].line != line {
		if t.slots[i].line == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	ws := t.slots[i].waiters
	t.n--
	// Backward shift: pull each later key of the probe run into the
	// hole unless the hole lies before its home (cyclically), in which
	// case moving it would hide it from lookups.
	for j := (i + 1) & mask; t.slots[j].line != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].line)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot{}
	return ws
}

// grow doubles the table and rehashes every key.
func (t *mshrTable) grow() {
	old := t.slots
	*t = mshrTable{slots: make([]mshrSlot, 2*len(old)), shift: t.shift - 1, n: t.n}
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.line == 0 {
			continue
		}
		i := t.home(s.line)
		for t.slots[i].line != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
