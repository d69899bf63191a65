// Package memctrl models the main-memory controllers — the DRAMSim2-like
// half of the paper's simulation infrastructure. Each Controller owns one
// channel with per-bank row-buffer timing, separate read and write
// queues, and the paper's scheduling policy: read-first, with a write
// drain once the write queue reaches 80% occupancy. A Backend assembles
// controllers into the hybrid main memory of Figure 1: a Topology's worth
// of address-interleaved NVM and DRAM channels (Table 2's machine is the
// default 1x1 topology) behind one typed request port.
//
// Writes carry two completions (sim.Events): apply, fired at the instant
// the write becomes durable (the caller uses it to update the durable
// memory image), and onDurable, the completion notification (the NVM
// controller's acknowledgment message back to the transaction cache,
// §4.3).
package memctrl

import (
	"fmt"

	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
)

// Config sizes and times one controller.
type Config struct {
	// Name labels the controller in stats output ("NVM", "DRAM").
	Name string
	// Banks is the total bank count (ranks x banks/rank).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes uint64
	// Read/Write latencies in CPU cycles, split by row-buffer outcome.
	ReadHit, ReadMiss   uint64
	WriteHit, WriteMiss uint64
	// ReadWindow/WriteWindow are the scheduling-queue depths (8/64 in
	// Table 2): only the first Window entries of each pending FIFO are
	// candidates for out-of-order (row-hit-first) issue.
	ReadWindow, WriteWindow int
	// DrainHigh starts a write drain when pending writes reach this
	// count; DrainLow ends it. Table 2: drain at 80% of the 64-entry
	// queue.
	DrainHigh, DrainLow int
}

// WithDefaults fills zero fields with usable defaults.
func (c Config) WithDefaults() Config {
	if c.Banks == 0 {
		c.Banks = 32
	}
	if c.RowBytes == 0 {
		c.RowBytes = 8192
	}
	if c.ReadWindow == 0 {
		c.ReadWindow = 8
	}
	if c.WriteWindow == 0 {
		c.WriteWindow = 64
	}
	if c.DrainHigh == 0 {
		c.DrainHigh = c.WriteWindow * 8 / 10
	}
	if c.DrainLow == 0 {
		c.DrainLow = c.WriteWindow / 4
	}
	return c
}

// Validate rejects configurations WithDefaults would silently accept but
// that produce nonsense downstream (a drain window that can never close,
// negative scheduling windows). Call it on the defaulted configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("memctrl %s: Banks = %d, must be positive", c.Name, c.Banks)
	}
	if c.RowBytes == 0 {
		return fmt.Errorf("memctrl %s: RowBytes must be positive", c.Name)
	}
	if c.ReadWindow <= 0 || c.WriteWindow <= 0 {
		return fmt.Errorf("memctrl %s: scheduling windows (read %d, write %d) must be positive",
			c.Name, c.ReadWindow, c.WriteWindow)
	}
	if c.DrainHigh <= 0 || c.DrainLow < 0 {
		return fmt.Errorf("memctrl %s: drain thresholds (high %d, low %d) must be non-negative with DrainHigh > 0",
			c.Name, c.DrainHigh, c.DrainLow)
	}
	if c.DrainLow >= c.DrainHigh {
		return fmt.Errorf("memctrl %s: DrainLow %d >= DrainHigh %d — the drain window would re-trigger every cycle",
			c.Name, c.DrainLow, c.DrainHigh)
	}
	if c.ReadHit > c.ReadMiss || c.WriteHit > c.WriteMiss {
		return fmt.Errorf("memctrl %s: row-hit latencies (read %d/%d, write %d/%d) must not exceed row-miss latencies",
			c.Name, c.ReadHit, c.ReadMiss, c.WriteHit, c.WriteMiss)
	}
	return nil
}

type request struct {
	lineAddr uint64
	// bank and row are derived from lineAddr once at enqueue time; the
	// scheduler's window scan reads them every cycle and the divisions
	// are too hot to repeat there.
	bank    int
	row     uint64
	apply   sim.Event
	done    sim.Event
	trk     *obs.FlightWrite
	enqueue uint64
}

// bank is one bank's row buffer and scheduling state. busy is set from
// the issue of a command to the bank until its completion fires; inWin
// counts the scheduling-window entries, reads and writes, that target
// the bank.
type bank struct {
	openRow uint64
	hasOpen bool
	busy    bool
	inWin   int
}

// Stats accumulates controller activity.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	ReadLatencySum     uint64 // enqueue -> data, in cycles
	ReadLatencyMax     uint64
	WriteQueuePeak     int
	DrainEntries       uint64 // times a drain started
	BusyCycles         uint64 // cycles with >= 1 command issued
}

// Controller is one memory channel. It registers with the kernel, which
// ticks it on every cycle it is awake.
type Controller struct {
	k     *sim.Kernel
	cfg   Config
	banks []bank

	reads  []request
	writes []request
	// flight holds issued commands whose completion has not fired; the
	// completion Event's Arg is the slot index shifted left once, with
	// the low bit marking a write.
	flight     sim.Slots[request]
	completeFn func(uint64)
	draining   bool
	slot       int // kernel slot, for Sleep
	// ready counts the idle banks with at least one scheduling-window
	// entry: pick finds a command to issue exactly when it is nonzero.
	ready int

	// obs observes the channel (nil when disabled); id is its global
	// channel index (NVM channels first, then DRAM), which labels its
	// trace track and its tracked writes. The Backend sets both.
	obs *obs.Sink
	id  int
	// space is the Backend whose NVM space the channel belongs to, set
	// once the backend has a drain subscriber (nil for DRAM channels and
	// standalone controllers): issue tells it when the channel's last
	// queued write issues.
	space *Backend

	stats Stats
}

// New returns a controller registered with k.
func New(k *sim.Kernel, cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	c := &Controller{k: k, cfg: cfg, banks: make([]bank, cfg.Banks)}
	c.completeFn = c.complete
	c.slot = k.Register(c)
	c.sleep()
	return c
}

// Config returns the (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// PendingReads reports queued, unissued reads.
func (c *Controller) PendingReads() int { return len(c.reads) }

// PendingWrites reports queued, unissued writes.
func (c *Controller) PendingWrites() int { return len(c.writes) }

// Read enqueues a line read; done fires when the data returns.
func (c *Controller) Read(lineAddr uint64, done sim.Event) {
	b := c.bankOf(lineAddr)
	c.reads = append(c.reads, request{
		lineAddr: lineAddr, bank: b, row: c.rowOf(lineAddr),
		done: done, enqueue: c.k.Now(),
	})
	if len(c.reads) <= c.cfg.ReadWindow {
		c.enter(b)
	}
	c.sleep()
}

// Write enqueues a line write. apply (may be the zero Event) fires at
// durability time, immediately before onDurable (may be zero).
func (c *Controller) Write(lineAddr uint64, apply, onDurable sim.Event) {
	c.WriteTracked(lineAddr, apply, onDurable, nil)
}

// WriteTracked enqueues a line write like Write, additionally marking
// the flight token w (may be nil) with the cycle the scheduler starts
// servicing it and the channel id — the flight recorder's
// WPQ-wait/NVM-write stage boundary. Taking the concrete token rather
// than a callback keeps the tracked path free of per-write closure
// allocations.
func (c *Controller) WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *obs.FlightWrite) {
	b := c.bankOf(lineAddr)
	c.writes = append(c.writes, request{
		lineAddr: lineAddr, bank: b, row: c.rowOf(lineAddr),
		apply: apply, done: onDurable, trk: w, enqueue: c.k.Now(),
	})
	if len(c.writes) <= c.cfg.WriteWindow {
		c.enter(b)
	}
	if len(c.writes) > c.stats.WriteQueuePeak {
		c.stats.WriteQueuePeak = len(c.writes)
	}
	c.sleep()
}

func (c *Controller) bankOf(lineAddr uint64) int {
	return int((lineAddr / 64) % uint64(c.cfg.Banks))
}

func (c *Controller) rowOf(lineAddr uint64) uint64 {
	return lineAddr / c.cfg.RowBytes / uint64(c.cfg.Banks)
}

// enter counts a request that moved into its scheduling window against
// its bank; leave uncounts one that moved out.
func (c *Controller) enter(b int) {
	bk := &c.banks[b]
	bk.inWin++
	if bk.inWin == 1 && !bk.busy {
		c.ready++
	}
}

func (c *Controller) leave(b int) {
	bk := &c.banks[b]
	bk.inWin--
	if bk.inWin == 0 && !bk.busy {
		c.ready--
	}
}

// pickIssuable returns the index of the request to issue from q (bounded
// by window): the first row-hit whose bank is idle, else the oldest whose
// bank is idle, else -1 (FR-FCFS within the scheduling window).
func (c *Controller) pickIssuable(q []request, window int) int {
	limit := len(q)
	if limit > window {
		limit = window
	}
	oldest := -1
	for i := 0; i < limit; i++ {
		b := &c.banks[q[i].bank]
		if b.busy {
			continue
		}
		if b.hasOpen && b.openRow == q[i].row {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

// issue starts the command at index idx of the write or read queue
// (inside its window) on its bank. The request leaves the window, the
// first one beyond it slides in, and the bank stays busy until complete.
func (c *Controller) issue(idx int, isWrite bool, now uint64) {
	q, window := &c.reads, c.cfg.ReadWindow
	if isWrite {
		q, window = &c.writes, c.cfg.WriteWindow
	}
	r := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	c.leave(r.bank)
	if len(*q) >= window {
		c.enter((*q)[window-1].bank)
	}
	bk := &c.banks[r.bank]
	if bk.inWin > 0 {
		c.ready--
	}
	bk.busy = true
	row := r.row
	hit := bk.hasOpen && bk.openRow == row
	var lat uint64
	switch {
	case isWrite && hit:
		lat = c.cfg.WriteHit
	case isWrite:
		lat = c.cfg.WriteMiss
	case hit:
		lat = c.cfg.ReadHit
	default:
		lat = c.cfg.ReadMiss
	}
	bk.openRow, bk.hasOpen = row, true
	if hit {
		c.stats.RowHits++
	} else {
		c.stats.RowMisses++
	}
	if isWrite {
		c.stats.Writes++
		c.obs.WPQWrite(c.id)
	} else {
		c.stats.Reads++
	}
	r.trk.ServiceStart(c.id, now)
	arg := c.flight.Put(r) << 1
	if isWrite {
		arg |= 1
		if len(c.writes) == 0 && c.space != nil {
			c.space.nvmChannelDrained()
		}
	}
	c.k.Schedule(lat, sim.Event{Fn: c.completeFn, Arg: arg})
}

// complete retires an issued command when its bank latency has elapsed:
// read latency accounting, then the request's apply and done.
func (c *Controller) complete(arg uint64) {
	req := c.flight.Take(arg >> 1)
	bk := &c.banks[req.bank]
	bk.busy = false
	if bk.inWin > 0 {
		c.ready++
	}
	if arg&1 == 0 {
		l := c.k.Now() - req.enqueue
		c.stats.ReadLatencySum += l
		if l > c.stats.ReadLatencyMax {
			c.stats.ReadLatencyMax = l
		}
	}
	req.apply.Fire()
	req.done.Fire()
	// The bank freed this cycle: a request blocked on it may issue.
	c.sleep()
}

// Tick implements sim.Tickable: issue one command under the read-first /
// write-drain policy.
func (c *Controller) Tick(now uint64) {
	if !c.draining && len(c.writes) >= c.cfg.DrainHigh {
		c.draining = true
		c.stats.DrainEntries++
		c.obs.WPQDrainStart(c.id, now)
	}
	if i, write := c.pick(); i >= 0 {
		c.issue(i, write, now)
		c.stats.BusyCycles++
	}
	// The drain window is re-checked after the issue, not before it:
	// checking first (against last cycle's queue) recorded a span end —
	// and held the draining flag — one cycle past the issue that actually
	// emptied the queue to DrainLow.
	if c.draining && len(c.writes) <= c.cfg.DrainLow {
		c.draining = false
		c.obs.WPQDrainEnd(c.id, now)
	}
	c.sleep()
}

// sleep re-evaluates whether the controller sleeps. Tick is a provable
// no-op when no drain transition is pending and neither scheduling
// window holds an issuable request; BusyCycles only accrues on issue,
// and a drain window can only close in the tick that issued the queue
// down to DrainLow. An issuable request is a window entry whose bank is
// idle, which ready counts, so the test is O(1). The queue appends (Read,
// WriteTracked) and the bank frees (complete) are the only ways out, and
// each calls sleep.
//
// The window-blocked case (requests queued, every candidate's bank busy)
// is sound because every busy bank has a completion event pending —
// issue schedules it with the command and events are never cancelled —
// so the bank frees inside complete, which re-evaluates.
func (c *Controller) sleep() {
	// A pending drain start keeps the controller awake.
	idle := (c.draining || len(c.writes) < c.cfg.DrainHigh) && c.ready == 0
	c.k.Sleep(c.slot, idle)
}

// pick chooses the next command under the read-first / write-drain
// policy and reports its index and queue, or -1 when nothing can issue.
func (c *Controller) pick() (i int, write bool) {
	if c.draining {
		if i := c.pickIssuable(c.writes, c.cfg.WriteWindow); i >= 0 {
			return i, true
		}
		// Banks busy for every window entry: try reads rather than
		// idling the channel.
		return c.pickIssuable(c.reads, c.cfg.ReadWindow), false
	}
	if i := c.pickIssuable(c.reads, c.cfg.ReadWindow); i >= 0 {
		return i, false
	}
	// Reads empty or blocked: opportunistically issue writes.
	return c.pickIssuable(c.writes, c.cfg.WriteWindow), true
}

// Quiescent reports whether no requests are queued or in flight: every
// accepted request has completed and fired its callbacks.
func (c *Controller) Quiescent() bool {
	return len(c.reads) == 0 && len(c.writes) == 0 && c.flight.Len() == 0
}
