package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResultsKeyedByCell(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Run(50, workers, func(i int) (int, error) {
			// Reverse the completion order with a tiny stagger so any
			// arrival-order bug shows up.
			time.Sleep(time.Duration(50-i) * time.Microsecond)
			return i * i, nil
		}, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestEmitInCellOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	_, err := Run(40, 8, func(i int) (int, error) {
		time.Sleep(time.Duration((i*7)%13) * time.Microsecond)
		return i, nil
	}, func(i, v int) {
		if i != v {
			t.Errorf("emit(%d, %d): index/value mismatch", i, v)
		}
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 40 {
		t.Fatalf("emitted %d cells, want 40", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("emit order %v: position %d got cell %d", order[:i+1], i, v)
		}
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var emitted []int
	_, err := Run(20, 4, func(i int) (int, error) {
		// Cells 7 and 12 both fail; 12 tends to fail first in wall time.
		if i == 12 {
			return 0, fmt.Errorf("cell 12: %w", boom)
		}
		if i == 7 {
			time.Sleep(2 * time.Millisecond)
			return 0, fmt.Errorf("cell 7: %w", boom)
		}
		return i, nil
	}, func(i, v int) { emitted = append(emitted, i) }, nil)
	if err == nil {
		t.Fatal("sweep with failing cells returned nil error")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not *sweep.Error", err)
	}
	if se.Cell != 7 {
		t.Fatalf("reported cell %d, want lowest failing cell 7", se.Cell)
	}
	if !errors.Is(err, boom) {
		t.Fatal("Unwrap lost the cell's own error")
	}
	// The emitted prefix must be exactly the cells a sequential loop
	// would have completed before the error: 0..6.
	for i, v := range emitted {
		if v != i || v >= 7 {
			t.Fatalf("emitted %v: sequential prefix before cell 7 violated", emitted)
		}
	}
}

func TestPanicRecoveredWithCellIdentity(t *testing.T) {
	_, err := Run(10, 4, func(i int) (int, error) {
		if i == 3 {
			panic("kaboom")
		}
		return i, nil
	}, nil, nil)
	if err == nil {
		t.Fatal("panicking sweep returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not unwrap to *sweep.PanicError: %v", err, err)
	}
	if pe.Cell != 3 {
		t.Fatalf("panic attributed to cell %d, want 3", pe.Cell)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value %v, want kaboom", pe.Value)
	}
	if pe.Stack == "" {
		t.Fatal("panic error carries no stack")
	}
}

func TestFirstErrorCancelsScheduling(t *testing.T) {
	// With one worker the sweep degenerates to a sequential loop: after
	// cell 2 fails, no later cell may start.
	var started atomic.Int32
	_, err := Run(100, 1, func(i int) (int, error) {
		started.Add(1)
		if i == 2 {
			return 0, errors.New("stop here")
		}
		return i, nil
	}, nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n != 3 {
		t.Fatalf("started %d cells after early failure, want 3", n)
	}
}

func TestWorkerCountRespected(t *testing.T) {
	var cur, peak atomic.Int32
	_, err := Run(32, 4, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return i, nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent cells with workers=4", p)
	}
}

func TestZeroCells(t *testing.T) {
	got, err := Run(0, 8, func(i int) (int, error) { return 0, errors.New("never") }, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(5); w != 5 {
		t.Errorf("Workers(5) = %d", w)
	}
}
