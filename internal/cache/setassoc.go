// Package cache implements the processor cache hierarchy: a generic
// set-associative write-back tag array and the three-level (private L1 and
// L2, shared LLC) timing model the cores access memory through.
//
// The hierarchy is deliberately mechanism-agnostic — "leave the cache
// hierarchy operation as it is". The persistence schemes under evaluation
// plug in through a small Hooks struct: the transaction-cache design drops
// persistent LLC evictions and probes its side path on LLC misses; the
// Kiln baseline pins uncommitted lines in the (nonvolatile) LLC; software
// logging and the Optimal baseline leave every hook at its zero value.
package cache

import (
	"fmt"
	"math/bits"

	"pmemaccel/internal/memaddr"
)

// Line is one tag-array entry.
type Line struct {
	// Addr is the line address (tag + index bits). Meaningful only when
	// Valid.
	Addr  uint64
	Valid bool
	Dirty bool
	// Persistent is the P/V flag of §4.3: set by persistent stores so
	// the (unmodified) hierarchy can tell persistent lines apart at
	// eviction.
	Persistent bool
	// TxID is the owning transaction of an uncommitted dirty line
	// (Kiln bookkeeping; zero otherwise).
	TxID uint64
	// Uncommitted marks Kiln lines that may not leave the LLC until
	// their transaction commits.
	Uncommitted bool

	lastUse uint64
}

// SetAssoc is a set-associative tag array that evicts the way with the
// oldest use stamp. It carries no data values; the simulator's
// functional state lives in memory images.
//
// Insert and a touching Lookup stamp a way with the cache's clock, which
// alone would make the policy LRU. The hierarchy, though, overwrites the
// way Insert returns with a copy of the incoming line, stamp included
// (installL1, installL2, insertLLC): a fill from memory carries stamp 0,
// and a line moving between levels carries a stamp from another cache's
// clock. So in the hierarchy a freshly filled line is the next victim of
// its set until it is hit again: the effective policy is LRU insertion
// (new lines enter at the LRU position), not LRU.
// TestFillFromMemoryIsNextL1Victim pins it.
type SetAssoc struct {
	name  string
	sets  int
	ways  int
	shift uint // log2(sets) for index extraction
	lines []Line
	clock uint64

	// Stats.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// geometry returns the set count of a sizeBytes cache with the given
// associativity, or an error unless it is a nonzero power of two.
func geometry(name string, sizeBytes, ways int) (int, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache %s: bad geometry %d bytes / %d ways", name, sizeBytes, ways)
	}
	sets := sizeBytes / memaddr.LineSize / ways
	if sets == 0 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache %s: %d bytes / %d ways gives %d sets (need nonzero power of two)",
			name, sizeBytes, ways, sets)
	}
	return sets, nil
}

// NewSetAssoc builds a cache of sizeBytes with the given associativity.
// sizeBytes must yield a power-of-two, nonzero set count.
func NewSetAssoc(name string, sizeBytes, ways int) *SetAssoc {
	sets, err := geometry(name, sizeBytes, ways)
	if err != nil {
		panic(err.Error())
	}
	return &SetAssoc{
		name:  name,
		sets:  sets,
		ways:  ways,
		shift: uint(bits.TrailingZeros(uint(sets))),
		lines: make([]Line, sets*ways),
	}
}

// Name returns the label given at construction.
func (c *SetAssoc) Name() string { return c.name }

// Sets and Ways report the geometry.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// SizeBytes reports the capacity.
func (c *SetAssoc) SizeBytes() int { return c.sets * c.ways * memaddr.LineSize }

func (c *SetAssoc) setOf(lineAddr uint64) int {
	return int((lineAddr / memaddr.LineSize) & uint64(c.sets-1))
}

func (c *SetAssoc) set(lineAddr uint64) []Line {
	s := c.setOf(lineAddr)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup returns the line holding lineAddr, or nil. When touch is true the
// access updates LRU state and hit/miss counters; probes (touch=false)
// leave both untouched.
func (c *SetAssoc) Lookup(lineAddr uint64, touch bool) *Line {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].Valid && set[i].Addr == lineAddr {
			if touch {
				c.clock++
				set[i].lastUse = c.clock
				c.Hits++
			}
			return &set[i]
		}
	}
	if touch {
		c.Misses++
	}
	return nil
}

// Insert installs lineAddr, evicting if needed. allowVictim (nil = allow
// all) filters which valid lines may be chosen as the LRU victim — the
// Kiln pinning hook. It returns the evicted line (valid only if evicted)
// and the installed line. ok is false when every candidate way is vetoed;
// the line is then NOT installed and the caller must resolve the pressure
// (Kiln's stall-and-drain path).
//
// Inserting an address that is already present is a programming error and
// panics: callers must Lookup first.
func (c *SetAssoc) Insert(lineAddr uint64, allowVictim func(*Line) bool) (evicted Line, installed *Line, ok bool) {
	set := c.set(lineAddr)
	victim := -1
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].Addr == lineAddr {
			panic(fmt.Sprintf("cache %s: double insert of line %#x", c.name, lineAddr))
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if allowVictim != nil && !allowVictim(&set[i]) {
				continue
			}
			if set[i].lastUse < oldest {
				oldest = set[i].lastUse
				victim = i
			}
		}
		if victim < 0 {
			return Line{}, nil, false
		}
		evicted = set[victim]
		c.Evictions++
		if evicted.Dirty {
			c.DirtyEvictions++
		}
	}
	c.clock++
	set[victim] = Line{Addr: lineAddr, Valid: true, lastUse: c.clock}
	return evicted, &set[victim], true
}

// Invalidate removes lineAddr if present, returning the removed line.
func (c *SetAssoc) Invalidate(lineAddr uint64) (Line, bool) {
	if l := c.Lookup(lineAddr, false); l != nil {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// ForEach visits every valid line. The callback may mutate the line but
// must not invalidate it.
func (c *SetAssoc) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// ValidCount reports the number of valid lines.
func (c *SetAssoc) ValidCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid {
			n++
		}
	}
	return n
}

// MissRate returns Misses / (Hits + Misses), or 0 before any access.
func (c *SetAssoc) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
