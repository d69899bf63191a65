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
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/obs/txflight"
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
	// CmdPerCycle is the command-issue bandwidth (default 1).
	CmdPerCycle int
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
	if c.CmdPerCycle == 0 {
		c.CmdPerCycle = 1
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
	if c.CmdPerCycle <= 0 {
		return fmt.Errorf("memctrl %s: CmdPerCycle = %d, must be positive", c.Name, c.CmdPerCycle)
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
	trk     *txflight.Write
	trkChan int
	enqueue uint64
}

type bank struct {
	busyUntil uint64
	openRow   uint64
	hasOpen   bool
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

// Controller is one memory channel. Register it with the kernel so Tick
// runs every cycle.
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

	// probe is the observability recorder (nil when disabled); chanID
	// labels this channel's track. drainStart/drainWrites frame the
	// current write-drain window.
	probe       *obs.Probe
	chanID      int
	drainStart  uint64
	drainWrites uint64

	// hDrainCycles/hDrainWrites stream each closed write-drain window's
	// duration and write count into the metrics registry (nil when
	// disabled).
	hDrainCycles *metrics.Histogram
	hDrainWrites *metrics.Histogram

	stats Stats
	wear  *Wear
}

// New returns a controller registered with k.
func New(k *sim.Kernel, cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	c := &Controller{k: k, cfg: cfg, banks: make([]bank, cfg.Banks), wear: newWear()}
	c.completeFn = c.complete
	k.Register(c)
	return c
}

// SetProbe attaches the observability recorder (nil disables probing);
// chanID labels the channel's trace track (0 NVM, 1 DRAM). A drain
// window still open when the probe is collected is flushed as a
// KWPQDrainOpen span ending at the collection cycle, so truncated spans
// appear in the trace instead of vanishing.
func (c *Controller) SetProbe(p *obs.Probe, chanID int) {
	c.probe = p
	c.chanID = chanID
	p.AddOpenSpanFlusher(func(now uint64) {
		if c.draining {
			p.Span(obs.KWPQDrainOpen, c.chanID, 0, c.drainStart, now,
				c.stats.Writes-c.drainWrites)
		}
	})
}

// SetMetrics attaches the write-drain histograms: window duration in
// cycles and writes issued per window. Nil histograms disable the
// observations; only windows that close are observed.
func (c *Controller) SetMetrics(drainCycles, drainWrites *metrics.Histogram) {
	c.hDrainCycles = drainCycles
	c.hDrainWrites = drainWrites
}

// Config returns the (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Wear returns the per-line write-count tracker (endurance analysis).
func (c *Controller) Wear() *Wear { return c.wear }

// PendingReads reports queued, unissued reads.
func (c *Controller) PendingReads() int { return len(c.reads) }

// PendingWrites reports queued, unissued writes.
func (c *Controller) PendingWrites() int { return len(c.writes) }

// Read enqueues a line read; done fires when the data returns.
func (c *Controller) Read(lineAddr uint64, done sim.Event) {
	c.reads = append(c.reads, request{
		lineAddr: lineAddr, bank: c.bankOf(lineAddr), row: c.rowOf(lineAddr),
		done: done, enqueue: c.k.Now(),
	})
}

// Write enqueues a line write. apply (may be the zero Event) fires at
// durability time, immediately before onDurable (may be zero).
func (c *Controller) Write(lineAddr uint64, apply, onDurable sim.Event) {
	c.writes = append(c.writes, request{
		lineAddr: lineAddr, bank: c.bankOf(lineAddr), row: c.rowOf(lineAddr),
		apply: apply, done: onDurable, enqueue: c.k.Now(),
	})
	if len(c.writes) > c.stats.WriteQueuePeak {
		c.stats.WriteQueuePeak = len(c.writes)
	}
}

// WriteTracked enqueues a line write like Write, additionally marking
// the flight-recorder write w (may be nil) with the cycle the scheduler
// starts servicing it and the channel id — the recorder's
// WPQ-wait/NVM-write stage boundary. Taking the concrete *txflight.Write
// rather than a callback keeps the tracked path free of per-write
// closure allocations.
func (c *Controller) WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *txflight.Write, channel int) {
	c.writes = append(c.writes, request{
		lineAddr: lineAddr, bank: c.bankOf(lineAddr), row: c.rowOf(lineAddr),
		apply: apply, done: onDurable, trk: w, trkChan: channel, enqueue: c.k.Now(),
	})
	if len(c.writes) > c.stats.WriteQueuePeak {
		c.stats.WriteQueuePeak = len(c.writes)
	}
}

func (c *Controller) bankOf(lineAddr uint64) int {
	return int((lineAddr / 64) % uint64(c.cfg.Banks))
}

func (c *Controller) rowOf(lineAddr uint64) uint64 {
	return lineAddr / c.cfg.RowBytes / uint64(c.cfg.Banks)
}

// pickIssuable returns the index of the request to issue from q (bounded
// by window): the first row-hit whose bank is idle, else the oldest whose
// bank is idle, else -1 (FR-FCFS within the scheduling window).
func (c *Controller) pickIssuable(q []request, window int, now uint64) int {
	limit := len(q)
	if limit > window {
		limit = window
	}
	oldest := -1
	for i := 0; i < limit; i++ {
		b := q[i].bank
		if c.banks[b].busyUntil > now {
			continue
		}
		if c.banks[b].hasOpen && c.banks[b].openRow == q[i].row {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (c *Controller) issue(q *[]request, idx int, isWrite bool, now uint64) {
	r := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	b := r.bank
	row := r.row
	hit := c.banks[b].hasOpen && c.banks[b].openRow == row
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
	c.banks[b].busyUntil = now + lat
	c.banks[b].openRow, c.banks[b].hasOpen = row, true
	if hit {
		c.stats.RowHits++
	} else {
		c.stats.RowMisses++
	}
	if isWrite {
		c.stats.Writes++
		c.wear.record(r.lineAddr)
	} else {
		c.stats.Reads++
	}
	if r.trk != nil {
		r.trk.ServiceStart(r.trkChan, now)
	}
	arg := c.flight.Put(r) << 1
	if isWrite {
		arg |= 1
	}
	c.k.Schedule(lat, sim.Event{Fn: c.completeFn, Arg: arg})
}

// complete retires an issued command when its bank latency has elapsed:
// read latency accounting, then the request's apply and done.
func (c *Controller) complete(arg uint64) {
	req := c.flight.Take(arg >> 1)
	if arg&1 == 0 {
		l := c.k.Now() - req.enqueue
		c.stats.ReadLatencySum += l
		if l > c.stats.ReadLatencyMax {
			c.stats.ReadLatencyMax = l
		}
	}
	req.apply.Fire()
	req.done.Fire()
}

// Tick implements sim.Tickable: issue up to CmdPerCycle commands under the
// read-first / write-drain policy.
func (c *Controller) Tick(now uint64) {
	if !c.draining && len(c.writes) >= c.cfg.DrainHigh {
		c.draining = true
		c.stats.DrainEntries++
		c.drainStart = now
		c.drainWrites = c.stats.Writes
	}
	issued := false
	for n := 0; n < c.cfg.CmdPerCycle; n++ {
		if c.draining {
			if i := c.pickIssuable(c.writes, c.cfg.WriteWindow, now); i >= 0 {
				c.issue(&c.writes, i, true, now)
				issued = true
				continue
			}
			// Banks busy for every window entry: fall through to
			// try reads rather than idling the channel.
		}
		if i := c.pickIssuable(c.reads, c.cfg.ReadWindow, now); i >= 0 {
			c.issue(&c.reads, i, false, now)
			issued = true
			continue
		}
		// Reads empty or blocked: opportunistically issue writes.
		if i := c.pickIssuable(c.writes, c.cfg.WriteWindow, now); i >= 0 {
			c.issue(&c.writes, i, true, now)
			issued = true
		}
	}
	if issued {
		c.stats.BusyCycles++
	}
	// The drain window is re-checked after the issue loop, not before it:
	// checking first (against last cycle's queue) recorded a span end —
	// and held the draining flag — one cycle past the issue that actually
	// emptied the queue to DrainLow.
	if c.draining && len(c.writes) <= c.cfg.DrainLow {
		c.draining = false
		c.probe.Span(obs.KWPQDrain, c.chanID, 0, c.drainStart, now,
			c.stats.Writes-c.drainWrites)
		c.hDrainCycles.Observe(now - c.drainStart)
		c.hDrainWrites.Observe(c.stats.Writes - c.drainWrites)
	}
}

// Idle implements sim.Quiescer. Tick is a provable no-op when no drain
// transition is pending and neither scheduling window holds an issuable
// request; BusyCycles only accrues on issue, and a drain window can only
// close in the tick that issued the queue down to DrainLow.
//
// The window-blocked case (requests queued, every candidate's bank busy)
// is skippable because every busy bank has a completion event pending at
// exactly its busyUntil cycle — issue schedules both together and events
// are never cancelled — so the kernel's skip target never passes the
// cycle a bank frees, and the blocked window stays blocked across every
// skipped cycle.
func (c *Controller) Idle() bool {
	if !c.draining && len(c.writes) >= c.cfg.DrainHigh {
		return false // drain-start transition pending
	}
	now := c.k.Now()
	if len(c.reads) > 0 && c.pickIssuable(c.reads, c.cfg.ReadWindow, now) >= 0 {
		return false
	}
	if len(c.writes) > 0 && c.pickIssuable(c.writes, c.cfg.WriteWindow, now) >= 0 {
		return false
	}
	return true
}

// Quiescent reports whether no requests are queued or in flight: every
// accepted request has completed and fired its callbacks.
func (c *Controller) Quiescent() bool {
	return len(c.reads) == 0 && len(c.writes) == 0 && c.flight.Len() == 0
}
