package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestChromeTraceRoundTrip writes a probe's events as Chrome trace JSON
// and reads them back: every recorded span and instant survives with
// its name, timing and args, metadata rows are filtered out, and the
// writer's OtherData accounting comes through.
func TestChromeTraceRoundTrip(t *testing.T) {
	p := NewProbe(64)
	p.Span(KTx, 0, 1, 100, 250, 7)
	p.Span(KTCDrain, 1, 2, 300, 340, 4)
	p.Instant(KTCCommit, 0, 3, 260, 0)
	p.Span(KWPQDrain, -1, 0, 400, 400, 9) // zero-length: exported as 1-cycle slice
	p.Span(KTCFull, 2, 5, 500, 652, 0x40)

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Events) != 5 {
		t.Fatalf("read %d events, want 5 (metadata must be filtered)", len(data.Events))
	}
	byName := map[string]ChromeEvent{}
	for _, e := range data.Events {
		byName[e.Name] = e
	}
	tx := byName[KTx.String()]
	if !tx.Span() || tx.Ts != 100 || tx.Dur != 150 {
		t.Errorf("tx span read back as %+v", tx)
	}
	if tx.Args["arg"] != 7 || tx.Args["id"] != 1 {
		t.Errorf("tx args lost: %+v", tx.Args)
	}
	if c := byName[KTCCommit.String()]; c.Span() || c.Ts != 260 {
		t.Errorf("instant read back as %+v", c)
	}
	if w := byName[KWPQDrain.String()]; !w.Span() || w.Dur != 1 {
		t.Errorf("zero-length span read back as %+v", w)
	}
	if f := byName[KTCFull.String()]; !f.Span() || f.Ts != 500 || f.Dur != 152 || f.Tid != 2 ||
		f.Args["id"] != 5 || f.Args["arg"] != 0x40 {
		t.Errorf("tc-full span read back as %+v", f)
	}
	for _, key := range []string{"recorded", "dropped", "open_flushed", "time_unit"} {
		if _, ok := data.OtherData[key]; !ok {
			t.Errorf("OtherData missing %q: %+v", key, data.OtherData)
		}
	}
	if data.OtherData["recorded"] != "5" || data.OtherData["dropped"] != "0" {
		t.Errorf("accounting wrong: %+v", data.OtherData)
	}
}

// TestReadChromeTraceRejectsGarbage checks the error path names the
// problem rather than returning an empty trace.
func TestReadChromeTraceRejectsGarbage(t *testing.T) {
	_, err := ReadChromeTrace(strings.NewReader("not json"))
	if err == nil || !strings.Contains(err.Error(), "chrome trace") {
		t.Fatalf("err = %v, want a parse error naming the trace", err)
	}
}

// TestFlowEventsRoundTrip: KTxStage spans sharing a flow id come back
// stitched — stage-named slices, s/t/f flow events anchored to them,
// and the whole trace passing ValidateFlows. A single-span flight emits
// no arrows.
func TestFlowEventsRoundTrip(t *testing.T) {
	p := NewProbe(64)
	flow := uint64(1)<<40 | 9 // core 1, tx 9
	p.Span(KTxStage, 1, flow, 10, 20, 0)
	p.Span(KTxStage, 1, flow, 20, 25, 2)
	p.Span(KTxStage, 0, flow, 25, 60, 4) // memory-side stage, channel 0
	p.Span(KTxStage, 0, 3, 30, 40, 0)    // single-span flight: no arrows

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlows(data); err != nil {
		t.Fatalf("ValidateFlows: %v", err)
	}
	var s, tt, f int
	names := map[string]int{}
	for _, e := range data.Events {
		names[e.Name]++
		switch e.Ph {
		case "s":
			s++
		case "t":
			tt++
		case "f":
			f++
		}
	}
	if s != 1 || tt != 1 || f != 1 {
		t.Errorf("flow phases s/t/f = %d/%d/%d, want 1/1/1", s, tt, f)
	}
	for _, want := range []string{"stage:execute", "stage:tc-drain", "stage:nvm-write"} {
		if names[want] == 0 {
			t.Errorf("trace lacks %q span", want)
		}
	}
}

// TestValidateFlowsRejectsMalformed covers the checker's error cases:
// chains that are too short, out of order, or floating free of any
// anchoring span.
func TestValidateFlowsRejectsMalformed(t *testing.T) {
	span := func(pid, tid int, ts uint64) ChromeEvent {
		return ChromeEvent{Name: "stage:execute", Ph: "X", Ts: ts, Dur: 5, Pid: pid, Tid: tid}
	}
	flow := func(ph string, pid, tid int, ts uint64, id string) ChromeEvent {
		return ChromeEvent{Name: "tx-flow", Ph: ph, Ts: ts, Pid: pid, Tid: tid, ID: id}
	}
	cases := []struct {
		name   string
		events []ChromeEvent
	}{
		{"single event", []ChromeEvent{span(0, 0, 5), flow("s", 0, 0, 5, "1")}},
		{"no id", []ChromeEvent{span(0, 0, 5), flow("s", 0, 0, 5, ""), flow("f", 0, 0, 5, "")}},
		{"first not s", []ChromeEvent{span(0, 0, 5), span(0, 0, 9),
			flow("t", 0, 0, 5, "1"), flow("f", 0, 0, 9, "1")}},
		{"last not f", []ChromeEvent{span(0, 0, 5), span(0, 0, 9),
			flow("s", 0, 0, 5, "1"), flow("t", 0, 0, 9, "1")}},
		{"decreasing ts", []ChromeEvent{span(0, 0, 5), span(0, 0, 9),
			flow("s", 0, 0, 9, "1"), flow("f", 0, 0, 5, "1")}},
		{"no anchoring span", []ChromeEvent{span(0, 0, 5),
			flow("s", 0, 0, 5, "1"), flow("f", 1, 3, 99, "1")}},
	}
	for _, tc := range cases {
		if err := ValidateFlows(&ChromeTraceData{Events: tc.events}); err == nil {
			t.Errorf("%s: ValidateFlows accepted a malformed trace", tc.name)
		}
	}
	// And the happy path for the same helper shapes.
	good := &ChromeTraceData{Events: []ChromeEvent{
		span(0, 0, 5), span(1, 2, 9),
		flow("s", 0, 0, 5, "1"), flow("f", 1, 2, 9, "1"),
	}}
	if err := ValidateFlows(good); err != nil {
		t.Errorf("ValidateFlows rejected a well-formed trace: %v", err)
	}
}
