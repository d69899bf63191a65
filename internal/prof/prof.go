// Package prof backs the command-line tools' -cpuprofile and
// -memprofile flags with the stdlib runtime/pprof machinery: start a
// CPU profile before the simulation work, write a heap profile after
// it, both in `go tool pprof` format. The simulator's hot loop is the
// kernel tick; these profiles are how the cycles/s regressions the
// benchmark harness flags get attributed to code.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags defines -cpuprofile and -memprofile on fs. Once fs is parsed,
// call the returned start: it begins the CPU profile and returns the
// stop function to defer, which ends the CPU profile and writes the
// heap profile. Errors after the run are reported to stderr, since the
// run's own output is already out by then.
func Flags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile (go tool pprof format) to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file at exit")
	return func() (func(), error) {
		stopCPU := func() {}
		if *cpu != "" {
			var err error
			if stopCPU, err = startCPU(*cpu); err != nil {
				return nil, err
			}
		}
		return func() {
			stopCPU()
			if *mem != "" {
				if err := writeHeap(*mem); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}
		}, nil
	}
}

// startCPU begins a CPU profile streaming to path and returns the
// function that stops it and closes the file.
func startCPU(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "prof:", err)
		}
	}, nil
}

// writeHeap writes a heap profile of live objects to path, running a GC
// first so the profile reflects retained memory rather than garbage
// awaiting collection.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: %w", err)
	}
	return f.Close()
}
