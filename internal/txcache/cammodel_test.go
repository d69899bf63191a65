package txcache

import (
	"slices"
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
)

// camModel is the TC's specification as a reference: a CAM FIFO whose
// every match is a full scan over the ring, with no index, kernel, port
// or observer. Issue is stated directly: the oldest live entry that has
// not issued goes next, unless it is still active.
type camModel struct {
	e                 []Entry
	head, tail, count int
	highWater         int
	stats             Stats
}

func newCAMModel(entries int, frac float64) *camModel {
	return &camModel{e: make([]Entry, entries), highWater: int(float64(entries) * frac)}
}

func (m *camModel) next(i int) int { return (i + 1) % len(m.e) }

func (m *camModel) write(txID, addr, value uint64) WriteResult {
	switch {
	case m.count >= len(m.e):
		m.stats.FullRejects++
		return Full
	case m.count >= m.highWater:
		m.stats.FallbackWrites++
		return Fallback
	case m.e[m.head].State != Available:
		m.stats.FullRejects++
		return Full
	}
	m.e[m.head] = Entry{State: Active, TxID: txID, Addr: memaddr.WordAddr(addr), Value: value}
	m.head = m.next(m.head)
	m.count++
	m.stats.Writes++
	m.stats.OccupancyPeak = max(m.stats.OccupancyPeak, m.count)
	return Accepted
}

func (m *camModel) commit(txID uint64) {
	m.stats.Commits++
	for i := range m.e {
		if m.e[i].State == Active && m.e[i].TxID == txID {
			m.e[i].State = Committed
		}
	}
}

func (m *camModel) probe(addr uint64) bool {
	m.stats.Probes++
	for _, e := range m.e {
		if e.State != Available && memaddr.LineAddr(e.Addr) == memaddr.LineAddr(addr) {
			m.stats.ProbeHits++
			return true
		}
	}
	return false
}

// fifo returns the live ring indices, oldest first.
func (m *camModel) fifo() []int {
	var out []int
	for n, i := 0, m.tail; n < len(m.e); n, i = n+1, m.next(i) {
		if m.e[i].State != Available {
			out = append(out, i)
		}
	}
	return out
}

// tick issues the oldest unissued live entry if it is committed, and
// reports it.
func (m *camModel) tick() (Entry, bool) {
	for _, i := range m.fifo() {
		e := &m.e[i]
		if e.issued {
			continue
		}
		if e.State == Active {
			return Entry{}, false
		}
		e.issued = true
		m.stats.Issued++
		return *e, true
	}
	return Entry{}, false
}

// free returns entry i to available and moves the tail to the oldest
// live entry (the head when none is left).
func (m *camModel) free(i int) {
	m.e[i] = Entry{}
	m.count--
	if live := m.fifo(); len(live) > 0 {
		m.tail = live[0]
	} else {
		m.tail = m.head
	}
}

// ack CAM-matches the issued entry holding addr nearest the tail and
// returns what it held.
func (m *camModel) ack(addr uint64) (Entry, bool) {
	for _, i := range m.fifo() {
		if e := m.e[i]; e.State == Committed && e.issued && e.Addr == addr {
			m.stats.Acked++
			m.free(i)
			return e, true
		}
	}
	return Entry{}, false
}

func (m *camModel) evict(txID uint64) []Entry {
	var out []Entry
	for _, i := range m.fifo() {
		if e := m.e[i]; e.State == Active && e.TxID == txID {
			out = append(out, e)
			m.free(i)
		}
	}
	return out
}

func (m *camModel) contents() []Entry {
	var out []Entry
	for _, i := range m.fifo() {
		out = append(out, m.e[i])
	}
	return out
}

// indexesMatch reports whether the TC's host-side indexes agree with the
// model's ring, which has the same layout: the active list holds the
// Active entries' ring indices in FIFO order, and each probe-filter
// bucket counts its live entries exactly.
func (m *camModel) indexesMatch(tc *TxCache) bool {
	var active []int32
	live := make([]int32, len(tc.live))
	for _, i := range m.fifo() {
		if m.e[i].State == Active {
			active = append(active, int32(i))
		}
		live[tc.lineBucket(m.e[i].Addr)]++
	}
	return slices.Equal(active, tc.active) && slices.Equal(live, tc.live)
}

// pendingDrain is a drain write the port holds: its apply and ack
// events, and the entry the model issued for it.
type pendingDrain struct {
	apply, ack sim.Event
	e          Entry
}

// TestQuickTxCacheMatchesCAMModel drives the TC and camModel with the
// same random operation sequences and compares them after every
// operation: each answer, the port's issue order, the durable applies,
// Contents, Occupancy and Stats, and the TC's active list and probe
// filter against the model's ring. Rings of 2–8 entries with high-water
// marks at half, three quarters and all of the ring reach both Full (a
// full ring, or a live head slot behind out-of-order acks) and Fallback.
// Two transactions are open at a time, so commits and evictions
// interleave. Acks are released in any order that keeps each word's
// writes in issue order, the Port's contract. Each uint64 carries four
// 16-bit operations; run more sequences with -quickchecks.
func TestQuickTxCacheMatchesCAMModel(t *testing.T) {
	const words, lines = 8, 5 // four lines of two words, and one never written
	word := func(i int) uint64 { return memaddr.NVMBase + uint64(i/2)*memaddr.LineSize + uint64(i%2)*8 }
	f := func(size, mark uint8, seq []uint64) bool {
		entries := 2 + int(size%7)
		frac := []float64{0.5, 0.75, 1}[mark%3]
		k := sim.NewKernel()
		port := &fakeNVM{k: k, hold: true}
		type applied struct{ addr, value uint64 }
		var got []applied
		tc := New(k, Config{SizeBytes: entries * 64, HighWaterFrac: frac}, port,
			func(addr, value uint64) { got = append(got, applied{addr, value}) }, nil, 0)
		m := newCAMModel(entries, frac)
		open := [2]uint64{1, 2}
		nextTx := uint64(3)
		var pending []pendingDrain
		for _, packed := range seq {
			for s := 0; s < 64; s += 16 {
				op := uint16(packed >> s)
				p := int(op >> 3)
				switch op & 7 {
				case 0, 1:
					tx, a := open[p&1], word((p>>1)%words)
					if r, want := tc.Write(tx, a, uint64(op)), m.write(tx, a, uint64(op)); r != want {
						t.Logf("write(%d, %#x) = %v, model %v", tx, a, r, want)
						return false
					}
				case 2:
					tc.Commit(open[p&1])
					m.commit(open[p&1])
					open[p&1], nextTx = nextTx, nextTx+1
				case 3:
					ev, want := tc.EvictTx(open[p&1]), m.evict(open[p&1])
					if !slices.Equal(ev, want) {
						t.Logf("EvictTx(%d) = %+v, model %+v", open[p&1], ev, want)
						return false
					}
					open[p&1], nextTx = nextTx, nextTx+1
				case 4:
					a := memaddr.NVMBase + uint64(p%lines)*memaddr.LineSize
					if hit, want := tc.Probe(a), m.probe(a); hit != want {
						t.Logf("Probe(%#x) = %v, model %v", a, hit, want)
						return false
					}
				case 5, 6:
					k.Step()
					e, ok := m.tick()
					if ok != (len(port.held) == 2) || ok && port.writes[len(port.writes)-1] != memaddr.LineAddr(e.Addr) {
						t.Logf("tick issued %v (lines %#x), model %v %+v", len(port.held) == 2, port.writes, ok, e)
						return false
					}
					if ok {
						pending = append(pending, pendingDrain{port.held[0], port.held[1], e})
						port.held = port.held[:0]
					}
				case 7:
					if len(pending) == 0 {
						break
					}
					// Release the oldest pending write to the chosen
					// write's word: same-word writes complete in order.
					j := 0
					for pending[j].e.Addr != pending[p%len(pending)].e.Addr {
						j++
					}
					d := pending[j]
					pending = append(pending[:j], pending[j+1:]...)
					d.apply.Fire()
					d.ack.Fire()
					e, ok := m.ack(d.e.Addr)
					last := got[len(got)-1]
					if !ok || e.Value != d.e.Value || last != (applied{d.e.Addr, d.e.Value}) {
						t.Logf("ack %+v: model retired %v %+v, durable apply %+v", d.e, ok, e, last)
						return false
					}
				}
				if !slices.Equal(tc.Contents(), m.contents()) || tc.Occupancy() != m.count ||
					tc.Drained() != (m.count == 0) || tc.Stats() != m.stats {
					t.Logf("op %#x: contents %+v occupancy %d stats %+v\nmodel contents %+v occupancy %d stats %+v",
						op, tc.Contents(), tc.Occupancy(), tc.Stats(), m.contents(), m.count, m.stats)
					return false
				}
				if !m.indexesMatch(tc) {
					t.Logf("op %#x: active %v live %v disagree with the ring %+v", op, tc.active, tc.live, m.e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
