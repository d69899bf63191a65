// Package sweep is the deterministic parallel engine behind every
// evaluation grid: the paper's (benchmark x mechanism) figures and the
// ablation parameter scans are both embarrassingly parallel, so they run
// on a bounded worker pool and must produce bit-identical output to a
// sequential run.
//
// The determinism contract:
//
//   - every cell is a pure function of its index (each simulation seeds
//     its own RNG from its configuration), so results land in a slice
//     keyed by cell index, never by completion order;
//   - progress callbacks are serialized behind a reorder buffer and fire
//     in cell order 0, 1, 2, ... exactly as a sequential loop would;
//   - on failure the error reported is the one the sequential loop would
//     have hit first (the lowest-indexed failing cell), and the emitted
//     progress prefix stops exactly there;
//   - panics inside a cell are recovered into a *PanicError carrying the
//     cell index and stack, so one bad configuration cannot take down a
//     thousand-cell sweep without attribution.
//
// Workers are handed cell indices monotonically, which means every cell
// below the first failing index has been started (and runs to
// completion) before the failure is observed — the successful prefix of
// a failed sweep is therefore identical to the sequential path's.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a -j style worker-count flag: values <= 0 select
// runtime.GOMAXPROCS(0) (all available cores), anything else is taken
// as-is.
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// PanicError is a cell panic recovered into an error.
type PanicError struct {
	Cell  int    // index of the panicking cell
	Value any    // the value passed to panic
	Stack string // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// Error identifies which cell of a sweep failed. Unwrap exposes the
// cell's own error (a *PanicError if the cell panicked), so callers can
// use errors.As to attach benchmark/mechanism identity or trim result
// slices to the successful prefix.
type Error struct {
	Cell int
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Run executes cells 0..n-1 on at most workers concurrent goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)) and returns the results
// indexed by cell.
//
// emit (may be nil) is the serialized progress callback: it is invoked
// in strict cell order for every successful cell that precedes the
// first failure, regardless of the order cells actually complete.
//
// On failure Run returns a *Error wrapping the lowest-indexed failing
// cell's error; results[i] is still valid for every i below that index.
// The first failure also cancels the sweep: cells not yet started are
// never run (cells already in flight finish, and their results are
// discarded by the caller's error path).
func Run[T any](n, workers int, cell func(i int) (T, error), emit func(i int, v T)) ([]T, error) {
	return RunWithProgress(n, workers, cell, emit, nil)
}

// Progress is one live status update from a running sweep, delivered
// after a cell completes. Done counts the in-order emitted prefix (the
// same cells emit has seen), so a progress consumer and the emit
// callback always agree; Busy is how many workers were executing a
// cell at the instant of the update.
type Progress struct {
	Done  int
	Total int
	Busy  int
	// Elapsed is wall time since the sweep started. CellsPerSec is the
	// completed-prefix rate over Elapsed; ETA extrapolates it over the
	// remaining cells (zero until the rate is known).
	Elapsed     time.Duration
	CellsPerSec float64
	ETA         time.Duration
}

// RunWithProgress is Run plus a live progress callback. progress (may
// be nil, reducing to Run) is serialized through the same reorder-
// buffer lock as emit — the two never interleave mid-call, so a
// progress consumer may freely share an output stream with emit. It
// fires after every cell completion (whether or not the emitted prefix
// advanced), and like emit it must not call back into the sweep.
func RunWithProgress[T any](n, workers int, cell func(i int) (T, error),
	emit func(i int, v T), progress func(Progress)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	errs := make([]error, n)
	start := time.Now()
	var (
		next   atomic.Int64 // next cell index to hand out
		failed atomic.Bool  // stop handing out new cells
		busy   atomic.Int64 // workers currently inside cell()

		mu       sync.Mutex // guards the reorder buffer below
		done     = make([]bool, n)
		nextEmit int
	)

	// finish records cell i's completion and drains the reorder buffer:
	// the contiguous prefix of completed, successful cells is emitted in
	// order. A failed cell stops the drain permanently, so the emitted
	// prefix matches what a sequential loop would have produced before
	// hitting the same error.
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for nextEmit < n && done[nextEmit] && errs[nextEmit] == nil {
			if emit != nil {
				emit(nextEmit, results[nextEmit])
			}
			nextEmit++
		}
		if progress != nil {
			p := Progress{
				Done:    nextEmit,
				Total:   n,
				Busy:    int(busy.Load()),
				Elapsed: time.Since(start),
			}
			if p.Elapsed > 0 && p.Done > 0 {
				p.CellsPerSec = float64(p.Done) / p.Elapsed.Seconds()
				p.ETA = time.Duration(float64(n-p.Done) / p.CellsPerSec * float64(time.Second))
			}
			progress(p)
		}
	}

	runCell := func(i int) {
		busy.Add(1)
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &PanicError{Cell: i, Value: v, Stack: string(debug.Stack())}
				failed.Store(true)
			}
			busy.Add(-1)
			finish(i)
		}()
		v, err := cell(i)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		results[i] = v
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, &Error{Cell: i, Err: err}
		}
	}
	return results, nil
}

// StderrProgress returns a Progress consumer rendering a single
// carriage-return-updated status line to w (typically os.Stderr):
//
//	label: 12/40 cells, 4 busy, 3.2 cells/s, ETA 9s
//
// The line is finished with a newline when the last cell lands. Pass
// the result as RunWithProgress's progress argument; because progress
// and emit are serialized, sharing w with an emit printer is safe but
// visually messy — prefer one or the other.
func StderrProgress(w io.Writer, label string) func(Progress) {
	return func(p Progress) {
		eta := "?"
		if p.Done == p.Total {
			eta = "0s"
		} else if p.ETA > 0 {
			eta = p.ETA.Round(time.Second).String()
		}
		fmt.Fprintf(w, "\r%s: %d/%d cells, %d busy, %.1f cells/s, ETA %-8s",
			label, p.Done, p.Total, p.Busy, p.CellsPerSec, eta)
		if p.Done == p.Total {
			fmt.Fprintln(w)
		}
	}
}
