package txcache

import (
	"slices"
	"strings"
	"testing"

	"pmemaccel/internal/memaddr"
)

// sharedLine is the address of the i-th shared cache line.
func sharedLine(i int) uint64 { return memaddr.SharedNVMBase + uint64(i)*64 }

// ownerOf reports line's owning core, -1 when free.
func (a *LineArbiter) ownerOf(line uint64) int {
	if i := int((line - memaddr.SharedNVMBase) / memaddr.LineSize); i < len(a.owner) {
		return int(a.owner[i]) - 1
	}
	return -1
}

// acquire runs the two-cycle grant for core's transaction txID on addr:
// the first store stalls, its retry proceeds.
func acquire(t *testing.T, a *LineArbiter, core int, txID, addr uint64) {
	t.Helper()
	if d := a.Check(core, txID, addr); d != ArbRetry {
		t.Fatalf("core %d first store to %#x = %v, want ArbRetry", core, addr, d)
	}
	if d := a.Check(core, txID, addr); d != ArbProceed {
		t.Fatalf("core %d retry to %#x = %v, want ArbProceed", core, addr, d)
	}
}

func TestArbiterFCFSGrant(t *testing.T) {
	a := NewLineArbiter(2)
	l := sharedLine(0)
	if d := a.Check(0, 1, l); d != ArbRetry {
		t.Fatalf("first store = %v, want ArbRetry", d)
	}
	if a.ownerOf(l) != 0 {
		t.Fatalf("grant not written to owner at decision: owner %d", a.ownerOf(l))
	}
	for i := 0; i < 3; i++ {
		// The retry and every later store of the transaction proceed,
		// word offsets within the line included.
		if d := a.Check(0, 1, l+uint64(i)*8); d != ArbProceed {
			t.Fatalf("store %d after the grant = %v, want ArbProceed", i, d)
		}
	}
	if s := a.Stats(); s != (ArbStats{Acquires: 1}) {
		t.Fatalf("stats = %+v, want one acquire", s)
	}
}

func TestArbiterSameCycleLoserAborts(t *testing.T) {
	a := NewLineArbiter(2)
	contested, mine := sharedLine(0), sharedLine(1)
	// Core 1's transaction already holds and wrote another line.
	acquire(t, a, 1, 7, mine)
	a.NoteWrite(1, mine)
	// Same cycle, registration order: core 0 wins, core 1 loses.
	if d := a.Check(0, 3, contested); d != ArbRetry {
		t.Fatalf("winner's request = %v, want ArbRetry", d)
	}
	if d := a.Check(1, 7, contested); d != ArbRetry {
		t.Fatalf("loser's request = %v, want ArbRetry", d)
	}
	// Next cycle: the winner proceeds, the loser aborts.
	if d := a.Check(0, 3, contested); d != ArbProceed {
		t.Fatalf("winner's retry = %v, want ArbProceed", d)
	}
	if d := a.Check(1, 7, contested); d != ArbAbort {
		t.Fatalf("loser's retry = %v, want ArbAbort", d)
	}
	// The abort dropped the loser's open writes, so nothing keeps the
	// line it held: ownership is released.
	if a.ownerOf(mine) != -1 || len(a.cores[1].held) != 0 {
		t.Fatalf("loser still holds %v (owner of its line: %d)", a.cores[1].held, a.ownerOf(mine))
	}
	if a.ownerOf(contested) != 0 {
		t.Fatalf("contested line owner %d, want the winner", a.ownerOf(contested))
	}
	if s := a.Stats(); s != (ArbStats{Acquires: 3, Conflicts: 1, Releases: 1}) {
		t.Fatalf("stats = %+v, want 3 acquires, 1 conflict, 1 release", s)
	}
	// The replayed transaction asks afresh and is denied again.
	if d := a.Check(1, 7, contested); d != ArbRetry {
		t.Fatalf("replay's request = %v, want ArbRetry", d)
	}
}

func TestArbiterPendingDenialForAnotherLinePanics(t *testing.T) {
	a := NewLineArbiter(2)
	acquire(t, a, 0, 1, sharedLine(0))
	a.Check(1, 1, sharedLine(0)) // denied
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "denied line") {
			t.Fatalf("recover() = %v, want the pending-denial panic", r)
		}
	}()
	a.Check(1, 1, sharedLine(1))
}

// Every release point frees a line exactly when nothing keeps it: no
// open write and no committed write still draining.
func TestArbiterReleasePoints(t *testing.T) {
	l := sharedLine(0)
	commitThenAcks := func(a *LineArbiter) []string {
		var held []string
		a.CommitPending(0)
		if a.ownerOf(l) == 0 {
			held = append(held, "CommitPending")
		}
		a.DrainAck(0, l)
		if a.ownerOf(l) == 0 {
			held = append(held, "first ack")
		}
		a.DrainAck(0, l+8)
		return held
	}
	for _, tc := range []struct {
		name   string
		writes int
		// release runs the release point and returns the steps after
		// which the line was still held.
		release  func(a *LineArbiter) []string
		wantHeld []string
	}{
		{"acquired never written, CommitPending", 0, commitThenAcks, nil},
		{"acquired never written, ReleaseTxNow", 0, func(a *LineArbiter) []string {
			a.ReleaseTxNow(0)
			return nil
		}, nil},
		{"written, ReleaseTxNow", 2, func(a *LineArbiter) []string {
			a.ReleaseTxNow(0)
			return nil
		}, nil},
		{"written, last drain ack after CommitPending", 2, commitThenAcks,
			[]string{"CommitPending", "first ack"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewLineArbiter(2)
			acquire(t, a, 0, 1, l)
			for i := 0; i < tc.writes; i++ {
				a.NoteWrite(0, l+uint64(i)*8)
			}
			if held := tc.release(a); !slices.Equal(held, tc.wantHeld) {
				t.Fatalf("line held after %v, want after %v", held, tc.wantHeld)
			}
			if a.ownerOf(l) != -1 || len(a.cores[0].held) != 0 {
				t.Fatalf("line still owned by %d after the release point", a.ownerOf(l))
			}
			if s := a.Stats(); s.Releases != 1 {
				t.Fatalf("releases = %d, want 1", s.Releases)
			}
			// The freed line is grantable to another core.
			acquire(t, a, 1, 1, l)
		})
	}
}

// A drain ack that finds the open transaction writing the line again
// keeps ownership; the line then drains with that transaction.
func TestArbiterDrainAckKeepsLineRewritten(t *testing.T) {
	a := NewLineArbiter(1)
	l := sharedLine(0)
	acquire(t, a, 0, 1, l)
	a.NoteWrite(0, l)
	a.CommitPending(0)
	if d := a.Check(0, 2, l); d != ArbProceed {
		t.Fatalf("next transaction's store to a still-held line = %v, want ArbProceed", d)
	}
	a.NoteWrite(0, l)
	a.DrainAck(0, l)
	if a.ownerOf(l) != 0 {
		t.Fatal("drain ack released a line the open transaction wrote")
	}
	a.CommitPending(0)
	a.DrainAck(0, l)
	if a.ownerOf(l) != -1 {
		t.Fatal("line still owned after its last drain ack")
	}
	if s := a.Stats(); s != (ArbStats{Acquires: 1, Releases: 1}) {
		t.Fatalf("stats = %+v, want 1 acquire, 1 release", s)
	}
}

// The TC reports its drain acks to the arbiter it is wired to: the
// committed write's ack is the line's release point.
func TestArbiterReleasesOnTCDrainAck(t *testing.T) {
	k, tc, _, _ := newTC(t, 8)
	a := NewLineArbiter(1)
	tc.SetArbiter(a)
	l := sharedLine(0)
	acquire(t, a, 0, 1, l)
	if tc.Write(1, l, 42) != Accepted {
		t.Fatal("TC rejected the write")
	}
	a.NoteWrite(0, l)
	tc.Commit(1)
	a.CommitPending(0)
	if a.ownerOf(l) != 0 {
		t.Fatal("line released before its write drained")
	}
	k.RunUntil(tc.Drained, 10_000)
	if !tc.Drained() || a.ownerOf(l) != -1 {
		t.Fatalf("drained %v, owner %d; want the drain ack to release the line", tc.Drained(), a.ownerOf(l))
	}
}

func TestArbiterReleaseOfUnownedLinePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owner int // -1: the line is free
	}{
		{"free line", -1},
		{"line owned by another core", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewLineArbiter(2)
			if tc.owner >= 0 {
				acquire(t, a, tc.owner, 1, sharedLine(0))
			}
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("release of an unowned line did not panic")
				}
			}()
			a.release(0, sharedLine(0))
		})
	}
}

func TestArbiterPassesUnarbitratedStores(t *testing.T) {
	var none *LineArbiter
	a := NewLineArbiter(1)
	for _, tc := range []struct {
		name string
		a    *LineArbiter
		txID uint64
		addr uint64
	}{
		{"nil arbiter, shared line", none, 1, sharedLine(0)},
		{"non-transactional store", a, 0, sharedLine(0)},
		{"core-private line", a, 1, memaddr.NVMBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 2; i++ {
				if d := tc.a.Check(0, tc.txID, tc.addr); d != ArbProceed {
					t.Fatalf("store %d = %v, want ArbProceed", i, d)
				}
			}
			tc.a.NoteWrite(0, tc.addr)
			tc.a.CommitPending(0)
			tc.a.DrainAck(0, tc.addr)
			tc.a.ReleaseTxNow(0)
		})
	}
	if s := a.Stats(); s != (ArbStats{}) {
		t.Fatalf("unarbitrated stores touched the arbiter: %+v", s)
	}
}

// TestArbiterAllocationFree pins the arbiter's per-store paths at zero
// heap allocations once warm: a grant and its proceeding retry, a
// durable write, a denial and the loser's abort, and both release
// points (TC drain acks after CommitPending, and ReleaseTxNow).
func TestArbiterAllocationFree(t *testing.T) {
	a := NewLineArbiter(2)
	lines := []uint64{sharedLine(3), sharedLine(40), sharedLine(7)}
	tx := uint64(0)
	round := func() {
		tx++
		for _, l := range lines {
			a.Check(0, tx, l)
			a.Check(0, tx, l)
			a.NoteWrite(0, l)
		}
		if d := a.Check(1, tx, lines[0]); d != ArbRetry {
			t.Fatalf("contested store = %v, want ArbRetry", d)
		}
		if d := a.Check(1, tx, lines[0]); d != ArbAbort {
			t.Fatalf("loser's retry = %v, want ArbAbort", d)
		}
		a.CommitPending(0)
		for _, l := range lines[:2] {
			a.DrainAck(0, l)
		}
		a.ReleaseTxNow(0) // lines[2] still draining: kept
		a.DrainAck(0, lines[2])
	}
	round() // warm-up: the owner table and held list grow here
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocs per arbitration round, want 0", allocs)
	}
	for _, l := range lines {
		if o := a.ownerOf(l); o != -1 {
			t.Fatalf("line %#x still owned by core %d", l, o)
		}
	}
	// One warm-up round, then AllocsPerRun's own warm-up and 100 runs.
	if s := a.Stats(); s.Releases != 3*102 || s.Conflicts != 102 {
		t.Fatalf("stats %+v, want 306 releases and 102 conflicts", s)
	}
}
