package sweep

import (
	"errors"
	"strings"
	"testing"
)

// TestProgressInvariants checks the live-progress contract: updates are
// serialized with emit, Done tracks exactly the emitted prefix, never
// decreases, ends at Total, and Busy stays within the worker pool.
func TestProgressInvariants(t *testing.T) {
	const n, workers = 40, 4
	emitted := 0
	lastDone := 0
	updates := 0
	_, err := Run(n, workers,
		func(i int) (int, error) { return i * i, nil },
		func(i int, v int) { emitted++ },
		func(p Progress) {
			updates++
			if p.Total != n {
				t.Fatalf("Total = %d, want %d", p.Total, n)
			}
			if p.Done < lastDone {
				t.Fatalf("Done went backwards: %d after %d", p.Done, lastDone)
			}
			lastDone = p.Done
			// Serialized with emit under the same lock: the emitted
			// count and Done must agree at every update.
			if p.Done != emitted {
				t.Fatalf("Done = %d but emit has seen %d cells", p.Done, emitted)
			}
			if p.Busy < 0 || p.Busy > workers {
				t.Fatalf("Busy = %d outside [0, %d]", p.Busy, workers)
			}
			if p.Done > 0 && p.CellsPerSec <= 0 {
				t.Fatalf("Done = %d with non-positive rate %v", p.Done, p.CellsPerSec)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if updates != n {
		t.Errorf("progress fired %d times, want once per cell = %d", updates, n)
	}
	if lastDone != n {
		t.Errorf("final Done = %d, want %d", lastDone, n)
	}
}

// TestProgressOnFailure checks that a failing sweep still reports
// progress and that Done never exceeds the successful prefix the emit
// contract promises.
func TestProgressOnFailure(t *testing.T) {
	boom := errors.New("boom")
	maxDone := 0
	_, err := Run(20, 4,
		func(i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		},
		nil,
		func(p Progress) {
			if p.Done > maxDone {
				maxDone = p.Done
			}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if maxDone > 5 {
		t.Errorf("Done reached %d past the failing cell 5", maxDone)
	}
}

// TestRunUnchangedByNilProgress: with a nil progress consumer, Run still
// returns every result and emits in cell order.
func TestRunUnchangedByNilProgress(t *testing.T) {
	var order []int
	results, err := Run(10, 3,
		func(i int) (int, error) { return i + 100, nil },
		func(i int, v int) { order = append(order, i) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i+100 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order[%d] = %d", i, got)
		}
	}
}

// TestStderrProgressRenders checks the one-line renderer: counts and
// occupancy appear, the line starts with a carriage return for in-place
// updates, and the final update terminates the line.
func TestStderrProgressRenders(t *testing.T) {
	var b strings.Builder
	render := StderrProgress(&b, "grid")
	render(Progress{Done: 3, Total: 8, Busy: 2, CellsPerSec: 1.5})
	mid := b.String()
	if !strings.HasPrefix(mid, "\r") {
		t.Error("progress line does not start with carriage return")
	}
	for _, want := range []string{"grid:", "3/8 cells", "2 busy", "1.5 cells/s"} {
		if !strings.Contains(mid, want) {
			t.Errorf("progress line missing %q: %q", want, mid)
		}
	}
	if strings.Contains(mid, "\n") {
		t.Error("mid-sweep update emitted a newline")
	}
	render(Progress{Done: 8, Total: 8, CellsPerSec: 2})
	if !strings.HasSuffix(b.String(), "\n") {
		t.Error("final update did not terminate the line")
	}
}
