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
		o.TCFallback(0, 1, 0x40, 12)
		o.TCCommit(0, 1, 3, 13)
		o.TCBurstIssue(0, 14)
		o.TCBurstEnd(0, 15)
		o.WriteDurable(o.TCWrite(0, 1, 16), 17)
		o.SideProbe(0x80, 1, 18)
		o.SideHitFilled(5)
		o.LLCDrop(0x80, 19)
		o.TxFlush(0, 1, 20, 21, 2)
		o.WPQDrainStart(0, 22)
		o.WPQWrite(0)
		o.WPQDrainEnd(0, 23)
		o.FlushOpenSpans(24)
		if o.Sampled(1) || o.TCBurstOpen(0) {
			t.Fatal("nil sink reports state")
		}
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

// TestSinkWindowsFollowConsumers: drain windows are tracked when the
// trace or the registry consumes them — a metrics-only run still fills
// the burst histograms — and not for a flight-only sink, whose TCs must
// keep the idle behaviour of an unobserved run.
func TestSinkWindowsFollowConsumers(t *testing.T) {
	reg := metrics.NewRegistry()
	o := NewSink(nil, reg, 0)
	o.AddTC(1)
	o.TCBurstIssue(1, 50)
	o.TCBurstIssue(1, 51)
	if !o.TCBurstOpen(1) {
		t.Fatal("metrics-only sink did not open the drain burst")
	}
	o.TCBurstEnd(1, 60)
	h := reg.Snapshot().Histogram("tc_drain_burst_entries")
	if h == nil || h.Count != 1 || h.Max != 2 {
		t.Fatalf("tc_drain_burst_entries = %+v, want one 2-entry burst", h)
	}

	fl := NewSink(nil, nil, 1)
	fl.AddTC(0)
	fl.TCBurstIssue(0, 5)
	if fl.TCBurstOpen(0) {
		t.Fatal("flight-only sink tracked a drain burst")
	}
}
