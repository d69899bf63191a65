package obs

import (
	"testing"

	"pmemaccel/internal/obs/metrics"
)

// TestNilSinkIsInert: every emit method on the disabled sink is a no-op
// that allocates nothing, and the accessors answer nil.
func TestNilSinkIsInert(t *testing.T) {
	var o *Sink
	if o.Probe() != nil || o.Metrics() != nil || o.Flight() != nil {
		t.Fatal("nil sink exposes a consumer")
	}
	if NewSink(nil, nil, 0) != nil {
		t.Fatal("NewSink with no consumer must return the nil sink")
	}
	allocs := testing.AllocsPerRun(100, func() {
		o.AddTC(0)
		o.AddChannel(0, "NVM")
		o.TxBegin(0, 1, 10)
		o.TxCommit(0, 1, 10, 20, 30, true)
		o.TCFull(0, 1, 0x40, 11)
		o.TCWake(0, 12)
		o.TCFallback(0, 1, 0x40, 12)
		o.TCCommit(0, 1, 3, 13)
		o.TCBurstIssue(0, 14)
		o.TCBurstEnd(0, 15)
		o.WriteDurable(o.TCWrite(0, 1, 16), 17)
		o.SideProbe(0x80, 1, 18)
		o.MemFill(0x80, 19)
		o.LLCDrop(0x80, 19)
		o.TxFlush(0, 1, 20, 21, 2)
		o.WPQDrainStart(0, 22)
		o.WPQWrite(0)
		o.WPQDrainEnd(0, 23)
		o.FlushOpenSpans(24)
	})
	if allocs != 0 {
		t.Fatalf("nil sink allocated %.1f per run, want 0", allocs)
	}
}

// TestSinkFansOutOnce: one fall-back report reaches all three consumers
// — the trace instant, the registry counter and the sampled flight.
func TestSinkFansOutOnce(t *testing.T) {
	p := NewProbe(64)
	reg := metrics.NewRegistry()
	o := NewSink(p, reg, 1)
	o.AddTC(0)
	o.TxBegin(0, 7, 100)
	o.TCFallback(0, 7, 0x40, 110)
	o.TCCommit(0, 7, 0, 120)
	o.TxCommit(0, 7, 100, 120, 120, false)

	if n := p.CountKind(KTCFallback); n != 1 {
		t.Errorf("%d fall-back instants, want 1", n)
	}
	if c := reg.Snapshot().Counter("tc_fallback_txs"); c == nil || c.Value != 1 {
		t.Errorf("tc_fallback_txs = %+v, want 1", c)
	}
	if a := o.Flight().Aggregate(); a.Fallbacks != 1 || a.Sampled != 1 {
		t.Errorf("flight aggregate %+v, want one sampled fall-back flight", a)
	}
	if h := reg.Snapshot().Histogram("tx_latency_cycles"); h == nil || h.Count != 1 || h.Max != 20 {
		t.Errorf("tx_latency_cycles = %+v, want one 20-cycle observation", h)
	}
}

// TestSinkWindowsFollowConsumers: drain windows are tracked whichever
// consumer is on — a metrics-only run fills the burst histograms, a
// trace-only run records the burst span — since tracking them steers
// nothing.
func TestSinkWindowsFollowConsumers(t *testing.T) {
	reg := metrics.NewRegistry()
	o := NewSink(nil, reg, 0)
	o.AddTC(1)
	o.TCBurstIssue(1, 50)
	o.TCBurstIssue(1, 51)
	o.TCBurstEnd(1, 60)
	h := reg.Snapshot().Histogram("tc_drain_burst_entries")
	if h == nil || h.Count != 1 || h.Max != 2 {
		t.Fatalf("tc_drain_burst_entries = %+v, want one 2-entry burst", h)
	}

	p := NewProbe(8)
	tr := NewSink(p, nil, 0)
	tr.AddTC(0)
	tr.TCBurstIssue(0, 5)
	tr.TCBurstEnd(0, 9)
	if ev := p.Events(); len(ev) != 1 || ev[0].Kind != KTCDrain || ev[0].Start != 5 || ev[0].End != 9 || ev[0].Arg != 1 {
		t.Fatalf("trace-only sink recorded %+v, want one 1-entry tc-drain span [5, 9]", ev)
	}
}

// TestSinkTCFullSpan: a reject opens core's tc-full span, a retry's
// reject while it is open does not move it, and the waking ack closes
// it as one span carrying the first reject's transaction and address; a
// span still open at collection is flushed ending there.
func TestSinkTCFullSpan(t *testing.T) {
	p := NewProbe(16)
	o := NewSink(p, nil, 0)
	o.AddTC(0)
	o.AddTC(1)
	o.TCFull(1, 7, 0x40, 100)
	o.TCFull(1, 7, 0x40, 101)
	o.TCWake(1, 250)
	o.TCWake(1, 260) // no span open: nothing to close
	o.TCFull(0, 9, 0x80, 300)
	o.FlushOpenSpans(400)
	ev := p.Events()
	want := []Event{
		{Kind: KTCFull, Core: 1, Start: 100, End: 250, ID: 7, Arg: 0x40},
		{Kind: KTCFull, Core: 0, Start: 300, End: 400, ID: 9, Arg: 0x80},
	}
	if len(ev) != len(want) || ev[0] != want[0] || ev[1] != want[1] {
		t.Fatalf("events = %+v, want %+v", ev, want)
	}
	if p.OpenSpansFlushed() != 1 {
		t.Fatalf("OpenSpansFlushed = %d, want 1", p.OpenSpansFlushed())
	}
}

// TestSinkSideHitLatency: the sink times each side-hit LLC miss from its
// probe to the line's fill from memory; a miss whose probe missed, and a
// fill with no probe behind it, observe nothing, and every fill drops its
// start cycle, with or without metrics.
func TestSinkSideHitLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	o := NewSink(nil, reg, 0)
	o.SideProbe(0x1000, 1, 100)
	o.SideProbe(0x2000, 0, 105)
	o.MemFill(0x2000, 300)
	o.MemFill(0x3000, 310)
	o.MemFill(0x1000, 352)
	o.MemFill(0x1000, 400) // the hit was consumed by its fill
	h := reg.Snapshot().Histogram("side_probe_hit_latency_cycles")
	if h == nil || h.Count != 1 || h.Max != 252 {
		t.Fatalf("side_probe_hit_latency_cycles = %+v, want one 252-cycle observation", h)
	}

	if len(o.sideHits) != 0 {
		t.Fatalf("%d side-hit start cycles left after their fills", len(o.sideHits))
	}
	tr := NewSink(NewProbe(8), nil, 0)
	tr.SideProbe(0x1000, 1, 100)
	tr.MemFill(0x1000, 352)
	if len(tr.sideHits) != 0 {
		t.Fatalf("trace-only sink kept %d side-hit start cycles after the fill", len(tr.sideHits))
	}
}
