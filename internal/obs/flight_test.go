package obs

import "testing"

func TestSamplingPredicate(t *testing.T) {
	if NewFlightRecorder(0, nil) != nil {
		t.Fatal("NewFlightRecorder(0) must return the nil (disabled) recorder")
	}
	var nilR *FlightRecorder
	if nilR.Sampled(4) {
		t.Error("nil recorder sampled a transaction")
	}
	r := NewFlightRecorder(3, nil)
	for tx := uint64(1); tx <= 9; tx++ {
		if got, want := r.Sampled(tx), tx%3 == 0; got != want {
			t.Errorf("every=3: Sampled(%d) = %v, want %v", tx, got, want)
		}
	}
	if all := NewFlightRecorder(1, nil); !all.Sampled(1) || !all.Sampled(7) {
		t.Error("every=1 must sample every transaction")
	}
}

func TestNilRecorderInert(t *testing.T) {
	var r *FlightRecorder
	r.Begin(0, 1, 10)
	r.MarkFallback(0, 1)
	r.CommitMatched(0, 1, 2)
	r.Commit(0, 1, 10, 20)
	w := r.TCIssue(0, 1, 30)
	if w != nil {
		t.Fatal("nil recorder returned a Write")
	}
	w.ServiceStart(0, 40) // nil Write must be inert too
	r.WriteDurable(w, 50)
	if a := r.Aggregate(); a != (FlightAggregate{}) {
		t.Errorf("nil recorder aggregate = %+v, want zero", a)
	}
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
}

// TestZeroWriteFlightFinalizesAtCommit covers the mechanisms without TC
// hooks (SP, Kiln, Optimal) and TCache fallbacks: no tracked writes, so
// the flight ends at commit completion with zero post-commit stages.
func TestZeroWriteFlightFinalizesAtCommit(t *testing.T) {
	r := NewFlightRecorder(1, nil)
	r.Begin(0, 1, 100)
	r.Commit(0, 1, 150, 160)
	a := r.Aggregate()
	if a.Sampled != 1 || a.Open != 0 {
		t.Fatalf("sampled %d open %d, want 1/0", a.Sampled, a.Open)
	}
	want := [NumTxStages]uint64{50, 10, 0, 0, 0}
	if a.StageCycles != want {
		t.Errorf("stages %v, want %v", a.StageCycles, want)
	}
	if a.E2ECycles != 60 {
		t.Errorf("e2e %d, want 60", a.E2ECycles)
	}
	if a.CritCount[0] != 1 {
		t.Errorf("crit counts %v, want execute", a.CritCount)
	}
}

// TestCriticalPathIsLastDurableWrite drives a two-write flight and
// checks that the waterfall's post-commit stages come from the write
// that became durable last, and that the stage sum stays exact.
func TestCriticalPathIsLastDurableWrite(t *testing.T) {
	r := NewFlightRecorder(1, nil)
	r.Begin(0, 2, 0)
	r.CommitMatched(0, 2, 2)
	r.Commit(0, 2, 10, 10)
	if a := r.Aggregate(); a.Sampled != 0 || a.Open != 1 {
		t.Fatalf("flight finalized before its writes drained: %+v", a)
	}
	w1 := r.TCIssue(0, 2, 12)
	w1.ServiceStart(0, 15)
	r.WriteDurable(w1, 20)
	w2 := r.TCIssue(0, 2, 14)
	w2.ServiceStart(1, 30)
	r.WriteDurable(w2, 50)

	a := r.Aggregate()
	if a.Sampled != 1 || a.Open != 0 {
		t.Fatalf("sampled %d open %d, want 1/0", a.Sampled, a.Open)
	}
	// Critical write is w2: issue 14, service 30, durable 50.
	want := [NumTxStages]uint64{10, 0, 4, 16, 20}
	if a.StageCycles != want {
		t.Errorf("stages %v, want %v", a.StageCycles, want)
	}
	if a.E2ECycles != 50 {
		t.Errorf("e2e %d, want 50", a.E2ECycles)
	}
	var sum uint64
	for _, s := range a.StageCycles {
		sum += s
	}
	if sum != a.E2ECycles {
		t.Errorf("stage sum %d != e2e %d", sum, a.E2ECycles)
	}
	if a.CritCount[4] != 1 {
		t.Errorf("crit counts %v, want nvm-write", a.CritCount)
	}
}

// TestClampSkippedCheckpoint pins the defensive-clamp behaviour: a write
// whose service-start checkpoint never fired (e.g. the backend's
// recorded-fault path) must still produce a telescoping, exact-sum
// waterfall.
func TestClampSkippedCheckpoint(t *testing.T) {
	r := NewFlightRecorder(1, nil)
	r.Begin(1, 1, 0)
	r.CommitMatched(1, 1, 1)
	r.Commit(1, 1, 5, 5)
	w := r.TCIssue(1, 1, 8)
	// No ServiceStart: svcStart stays 0, below tcIssue.
	r.WriteDurable(w, 42)
	a := r.Aggregate()
	var sum uint64
	for _, s := range a.StageCycles {
		sum += s
	}
	if sum != a.E2ECycles || a.E2ECycles != 42 {
		t.Errorf("stage sum %d, e2e %d, want both 42", sum, a.E2ECycles)
	}
}

func TestMarkFallbackCounted(t *testing.T) {
	r := NewFlightRecorder(1, nil)
	r.Begin(0, 1, 0)
	r.MarkFallback(0, 1)
	r.Commit(0, 1, 9, 9)
	if a := r.Aggregate(); a.Fallbacks != 1 {
		t.Errorf("fallbacks %d, want 1", a.Fallbacks)
	}
	// Unknown flights are ignored, not invented.
	r.MarkFallback(3, 99)
	if a := r.Aggregate(); a.Open != 0 {
		t.Errorf("MarkFallback on unknown flight opened one: %+v", a)
	}
}

// TestStageSpansEmitted checks the probe export: one KTxStage span per
// nonzero stage, id carrying the (core<<40 | tx) flow id, arg the stage
// index, and core-side/memory-side stages landing on their tracks.
func TestStageSpansEmitted(t *testing.T) {
	p := NewProbe(64)
	r := NewFlightRecorder(1, p)
	r.Begin(2, 5, 0)
	r.CommitMatched(2, 5, 1)
	r.Commit(2, 5, 10, 10)
	w := r.TCIssue(2, 5, 12)
	w.ServiceStart(3, 20)
	r.WriteDurable(w, 33)

	wantFlow := uint64(2)<<40 | 5
	var got []Event
	for _, e := range p.Events() {
		if e.Kind == KTxStage {
			got = append(got, e)
		}
	}
	// execute(10), tc-drain(2), wpq-wait(8), nvm-write(13); commit-wait
	// is zero and must be skipped.
	if len(got) != 4 {
		t.Fatalf("%d KTxStage spans, want 4: %+v", len(got), got)
	}
	wantStage := []uint64{0, 2, 3, 4}
	for i, e := range got {
		if e.ID != wantFlow {
			t.Errorf("span %d flow id %d, want %d", i, e.ID, wantFlow)
		}
		if e.Arg != wantStage[i] {
			t.Errorf("span %d stage %d, want %d", i, e.Arg, wantStage[i])
		}
		wantCore := int32(2)
		if e.Arg >= 3 {
			wantCore = 3 // the critical write's global channel
		}
		if e.Core != wantCore {
			t.Errorf("span %d (stage %d) core %d, want %d", i, e.Arg, e.Core, wantCore)
		}
	}
}

func TestOpenFlightReported(t *testing.T) {
	r := NewFlightRecorder(2, nil)
	r.Begin(0, 2, 100) // sampled, never committed
	r.Begin(0, 3, 120) // not sampled: ignored
	a := r.Aggregate()
	if a.Open != 1 || a.Sampled != 0 {
		t.Errorf("open %d sampled %d, want 1/0", a.Open, a.Sampled)
	}
}
