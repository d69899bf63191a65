package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmemaccel/internal/sim"
)

// TestNilProbeIsNoOp: every method on a nil probe must be safe and
// answer the zero value.
func TestNilProbeIsNoOp(t *testing.T) {
	var p *Probe
	p.Span(KTx, 0, 1, 10, 20, 0)
	p.Instant(KTCFull, 0, 1, 10, 0)
	p.AddSource("x", func() int { return 1 })
	p.StartSampling(sim.NewKernel(), 10)
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	if got := p.Events(); got != nil {
		t.Fatalf("nil probe Events() = %v, want nil", got)
	}
	if p.Recorded() != 0 || p.Dropped() != 0 || p.SampleCount() != 0 {
		t.Fatal("nil probe reports activity")
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("nil-probe trace is not valid JSON: %v", err)
	}
	if err := p.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestNilProbeAllocations: the disabled (nil-probe) hot path must not
// allocate — this is the zero-overhead-when-disabled guarantee.
func TestNilProbeAllocations(t *testing.T) {
	var p *Probe
	allocs := testing.AllocsPerRun(1000, func() {
		p.Span(KTx, 2, 7, 100, 200, 0)
		p.Instant(KTCFull, 2, 7, 100, 0xabc)
		p.Instant(KLLCPDrop, -1, 0xdead, 101, 0)
		p.Span(KTCDrain, 1, 0, 50, 90, 12)
	})
	if allocs != 0 {
		t.Fatalf("nil probe allocated %.1f per run, want 0", allocs)
	}
}

// TestRingOverwrite: the ring keeps the newest events and counts drops.
func TestRingOverwrite(t *testing.T) {
	p := NewProbe(4)
	for i := uint64(0); i < 10; i++ {
		p.Instant(KTCCommit, 0, i, i, 0)
	}
	if p.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", p.Recorded())
	}
	if p.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", p.Dropped())
	}
	ev := p.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.ID != want {
			t.Fatalf("event %d has ID %d, want %d (oldest must be overwritten)", i, e.ID, want)
		}
	}
}

// TestRingOverwriteCountsPerKind: the per-kind drop breakdown
// attributes each overwrite to the kind of the event it evicted, sums
// to Dropped(), and survives the Chrome export as dropped_<kind>
// otherData entries (zero-drop kinds omitted).
func TestRingOverwriteCountsPerKind(t *testing.T) {
	p := NewProbe(4)
	for i := uint64(0); i < 4; i++ {
		p.Instant(KTCCommit, 0, i, i, 0)
	}
	for i := uint64(4); i < 7; i++ {
		p.Instant(KTCFull, 0, i, i, 0)
	}
	by := p.DroppedByKind()
	if got := by[KTCCommit]; got != 3 {
		t.Errorf("dropped[tc-commit] = %d, want 3 (the three evicted commits)", got)
	}
	var sum uint64
	for _, n := range by {
		sum += n
	}
	if sum != p.Dropped() {
		t.Errorf("per-kind drops sum to %d, Dropped() = %d", sum, p.Dropped())
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"dropped_tc-commit":"3"`) {
		t.Errorf("otherData lacks dropped_tc-commit: %s", s)
	}
	if strings.Contains(s, "dropped_tc-full") {
		t.Errorf("otherData lists a kind with zero drops: %s", s)
	}

	if got := (*Probe)(nil).DroppedByKind(); got != nil {
		t.Errorf("nil probe DroppedByKind = %v, want nil", got)
	}
}

// TestEventsSorted: export order is by start cycle even when spans are
// recorded at end time out of order.
func TestEventsSorted(t *testing.T) {
	p := NewProbe(16)
	p.Span(KTx, 0, 2, 50, 120, 0)
	p.Span(KTx, 1, 1, 10, 200, 0)
	p.Instant(KTCFull, 0, 3, 30, 0)
	ev := p.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatalf("events unsorted: %v", ev)
		}
	}
}

// TestChromeTraceShape: the export parses as JSON, carries span and
// instant phases, and names its tracks.
func TestChromeTraceShape(t *testing.T) {
	p := NewProbe(64)
	p.Span(KTx, 0, 42, 100, 250, 0)
	p.Span(KTCDrain, 0, 0, 260, 300, 5)
	p.Instant(KLLCPDrop, -1, 0x1000, 270, 0)
	p.Instant(KSideProbe, -1, 0x2000, 280, 1)
	p.Span(KWPQDrain, 0, 0, 300, 400, 51)

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "M" {
			phases[e.Name] = e.Ph
		}
	}
	if phases["tx"] != "X" {
		t.Fatalf("tx span exported as %q, want X", phases["tx"])
	}
	if phases["tc-drain"] != "X" {
		t.Fatalf("tc-drain exported as %q, want X", phases["tc-drain"])
	}
	if phases["llc-pdrop"] != "i" {
		t.Fatalf("llc-pdrop exported as %q, want i", phases["llc-pdrop"])
	}
	if !strings.Contains(buf.String(), "process_name") {
		t.Fatal("trace carries no process_name metadata")
	}
}

// TestSampler: kernel-driven sampling fires at the configured period and
// exports a CSV with a column per source.
func TestSampler(t *testing.T) {
	k := sim.NewKernel()
	p := NewProbe(8)
	depth := 0
	p.AddSource("queue_depth", func() int { return depth })
	p.AddSource("constant", func() int { return 7 })
	p.StartSampling(k, 10)
	for i := 0; i < 35; i++ {
		depth = i
		k.Step()
	}
	if p.SampleCount() != 3 {
		t.Fatalf("SampleCount = %d after 35 cycles at every=10, want 3", p.SampleCount())
	}
	var buf bytes.Buffer
	if err := p.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,queue_depth,constant" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4 (header + 3 samples)", len(lines))
	}
	if !strings.HasSuffix(lines[1], ",7") {
		t.Fatalf("constant column wrong: %q", lines[1])
	}
}

// TestSamplerNoSources: StartSampling with zero registered sources must
// schedule nothing — no samples accumulate, and the CSV degenerates to
// a bare header rather than rows of empty columns.
func TestSamplerNoSources(t *testing.T) {
	k := sim.NewKernel()
	p := NewProbe(8)
	p.StartSampling(k, 10)
	for i := 0; i < 50; i++ {
		k.Step()
	}
	if p.SampleCount() != 0 {
		t.Fatalf("SampleCount = %d with no sources, want 0", p.SampleCount())
	}
	if got := p.SampleCycles(); len(got) != 0 {
		t.Fatalf("SampleCycles = %v with no sources, want empty", got)
	}
	var buf bytes.Buffer
	if err := p.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "cycle" {
		t.Fatalf("CSV = %q, want bare header", got)
	}
}

// TestSamplerPeriodLongerThanRun: a sampling period beyond the run
// length yields zero samples and a header-only CSV — never a partial or
// extrapolated row.
func TestSamplerPeriodLongerThanRun(t *testing.T) {
	k := sim.NewKernel()
	p := NewProbe(8)
	p.AddSource("queue_depth", func() int { return 1 })
	p.StartSampling(k, 1000)
	for i := 0; i < 35; i++ {
		k.Step()
	}
	if p.SampleCount() != 0 {
		t.Fatalf("SampleCount = %d after 35 cycles at every=1000, want 0", p.SampleCount())
	}
	var buf bytes.Buffer
	if err := p.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "cycle,queue_depth" {
		t.Fatalf("CSV = %q, want header only", got)
	}
}

// BenchmarkNilProbe measures the disabled-path cost of one probe call —
// the branch every instrumented component pays per event site.
func BenchmarkNilProbe(b *testing.B) {
	var p *Probe
	for i := 0; i < b.N; i++ {
		p.Instant(KTCCommit, 0, uint64(i), uint64(i), 0)
	}
}

// BenchmarkEnabledProbe measures the enabled-path cost of recording into
// the ring.
func BenchmarkEnabledProbe(b *testing.B) {
	p := NewProbe(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Instant(KTCCommit, 0, uint64(i), uint64(i), 0)
	}
}

// TestFlushOpenSpans: each Flush call records the windows open at that
// moment, the counter tracks spans actually recorded, and the nil sink
// no-ops.
func TestFlushOpenSpans(t *testing.T) {
	var nilo *Sink
	nilo.AddTC(0)
	nilo.TCBurstIssue(0, 5)
	nilo.FlushOpenSpans(10)
	if nilo.Probe().OpenSpansFlushed() != 0 {
		t.Fatal("nil sink reports flushed spans")
	}

	p := NewProbe(16)
	o := NewSink(p, nil, 0)
	o.AddTC(0)
	o.AddTC(1) // a component with nothing open
	o.TCBurstIssue(0, 5)
	o.TCBurstIssue(0, 6)
	o.FlushOpenSpans(42)
	if p.OpenSpansFlushed() != 1 {
		t.Fatalf("OpenSpansFlushed = %d, want 1", p.OpenSpansFlushed())
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Kind != KTCDrainOpen || ev[0].End != 42 {
		t.Fatalf("events = %+v, want one KTCDrainOpen ending at 42", ev)
	}
	// After the span closes, a second collection flushes nothing new.
	o.TCBurstEnd(0, 45)
	o.FlushOpenSpans(50)
	if p.OpenSpansFlushed() != 1 {
		t.Fatalf("OpenSpansFlushed after close = %d, want 1", p.OpenSpansFlushed())
	}
}

// TestOpenSpanKindsExported: the open-span kinds survive the Chrome
// trace export as duration events and the counter appears in otherData.
func TestOpenSpanKindsExported(t *testing.T) {
	p := NewProbe(16)
	o := NewSink(p, nil, 0)
	o.AddChannel(0, "NVM")
	o.WPQDrainStart(0, 10)
	for i := 0; i < 7; i++ {
		o.WPQWrite(0)
	}
	o.FlushOpenSpans(99)
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "wpq-drain-open") {
		t.Fatal("exported trace lacks the open-span event")
	}
	if !strings.Contains(s, `"open_flushed":"1"`) {
		t.Fatalf("otherData lacks open_flushed counter: %s", s)
	}
}
