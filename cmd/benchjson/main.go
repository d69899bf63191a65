// Command benchjson turns `go test -bench` output into a JSON
// benchmark-trajectory record, so simulator-speed numbers (ns/op,
// allocs/op, sim_cycles/s) are diffable across commits instead of
// scrolling away in CI logs. The repository's benchmark is bench/
// (see bench/README.md); this command remains for ad-hoc records of
// any `go test -bench` run.
//
// Usage:
//
//	go test -run '^$' -bench Fig -benchtime 1x -benchmem . | benchjson -o new.json
//	benchjson -check new.json                       # validate an existing record
//	benchjson -check new.json -baseline old.json    # + regression gate
//
// The parser accepts the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs — and keeps every unit it
// sees, including custom b.ReportMetric units. Non-benchmark lines
// (PASS, ok, goos/goarch headers) pass through to stderr so the human
// still sees the run.
//
// -baseline compares sim_cycles/s against a prior record (in either
// parse or -check mode) and exits non-zero when any benchmark present
// in both files regressed by more than -max-regress (default 10%) —
// the bench regression gate CI runs against the previous PR's record.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// schemaVersion guards downstream consumers: bump it when the file
// shape changes.
const schemaVersion = 1

// File is the trajectory record: one entry per benchmark run.
type File struct {
	Schema     int     `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GoOS       string  `json:"goos"`
	GoArch     string  `json:"goarch"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurements. Metrics maps unit to value
// ("ns/op", "allocs/op", "sim_cycles/s", ...).
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	var (
		out        = flag.String("o", "", "write the JSON record to this file (empty = stdout)")
		check      = flag.String("check", "", "validate an existing record instead of parsing benchmark output")
		baseline   = flag.String("baseline", "", "compare sim_cycles/s against this prior record; exit non-zero on regression")
		maxRegress = flag.Float64("max-regress", 0.10, "with -baseline: tolerated fractional sim_cycles/s drop before failing")
	)
	flag.Parse()

	if *check != "" {
		f, err := checkFile(*check)
		if err != nil {
			fatal(err)
		}
		if err := gate(f, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
		fmt.Printf("benchjson: %s ok\n", *check)
		return
	}

	f, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(f.Benchmarks))
	}
	if err := gate(f, *baseline, *maxRegress); err != nil {
		fatal(err)
	}
}

// gate fails (non-nil error) when any benchmark present in both f and
// the baseline record dropped its sim_cycles/s by more than maxRegress.
// An empty baseline path is a no-op; benchmarks without the metric, or
// absent from either side, are skipped (renames must not wedge CI).
func gate(f *File, baselinePath string, maxRegress float64) error {
	if baselinePath == "" {
		return nil
	}
	base, err := checkFile(baselinePath)
	if err != nil {
		return err
	}
	const metric = "sim_cycles/s"
	baseBy := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	compared, skipped := 0, 0
	var regressions []string
	for _, b := range f.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok {
			// Absent from the baseline entirely: a new or renamed
			// benchmark, which must not wedge CI.
			continue
		}
		// A benchmark present on both sides but with a zero or missing
		// metric is a broken record, not a rename: comparing would divide
		// by zero or silently pass the gate, so warn loudly and skip. If
		// every common benchmark is skipped this way, the compared == 0
		// error below fails the gate.
		was, ok := bb.Metrics[metric]
		if !ok || was <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: WARNING: %s: baseline %s has zero or missing %s (%g) — cannot gate this benchmark\n",
				b.Name, baselinePath, metric, was)
			skipped++
			continue
		}
		now, ok := b.Metrics[metric]
		if !ok || now <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: WARNING: %s: current record has zero or missing %s (%g) against baseline %.0f — cannot gate this benchmark\n",
				b.Name, metric, now, was)
			skipped++
			continue
		}
		compared++
		drop := (was - now) / was
		fmt.Fprintf(os.Stderr, "benchjson: %-40s %s %12.0f -> %12.0f (%+.1f%%)\n",
			b.Name, metric, was, now, -drop*100)
		if drop > maxRegress {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s fell %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
					b.Name, metric, drop*100, was, now, maxRegress*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("benchjson: no benchmark in common with %s carries a usable %s (%d skipped with warnings)",
			baselinePath, metric, skipped)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchjson: %s regression vs %s:\n  %s",
			metric, baselinePath, strings.Join(regressions, "\n  "))
	}
	return nil
}

// parse reads benchmark output from r, echoing non-benchmark lines to
// echo, and returns the structured record.
func parse(r io.Reader, echo io.Writer) (*File, error) {
	f := &File{
		Schema:    schemaVersion,
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		b, ok := parseLine(line)
		if !ok {
			fmt.Fprintln(echo, line)
			continue
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines on stdin (pipe `go test -bench ...` output in)")
	}
	return f, nil
}

// parseLine parses one `BenchmarkName-8  N  v1 u1  v2 u2 ...` line.
// The -P GOMAXPROCS suffix is stripped from the name so records diff
// cleanly across machines.
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return Bench{}, false
	}
	b := Bench{Name: strings.TrimPrefix(name, "Benchmark"), Iterations: iters,
		Metrics: make(map[string]float64)}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Bench{}, false
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Bench{}, false
		}
		b.Metrics[rest[i+1]] = v
	}
	if _, ok := b.Metrics["ns/op"]; !ok {
		return Bench{}, false
	}
	return b, true
}

// checkFile validates a committed record: parseable JSON of the right
// schema, at least one benchmark, every benchmark named with positive
// iterations and an ns/op measurement. It is the CI smoke gate for the
// committed trajectory records (BENCH_7.json, BENCH_8.json).
func checkFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("benchjson: %s: schema %d, want %d", path, f.Schema, schemaVersion)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: %s: no benchmarks", path)
	}
	for i, b := range f.Benchmarks {
		if b.Name == "" {
			return nil, fmt.Errorf("benchjson: %s: benchmark %d has no name", path, i)
		}
		if b.Iterations <= 0 {
			return nil, fmt.Errorf("benchjson: %s: %s: iterations = %d", path, b.Name, b.Iterations)
		}
		if _, ok := b.Metrics["ns/op"]; !ok {
			return nil, fmt.Errorf("benchjson: %s: %s: missing ns/op", path, b.Name)
		}
	}
	return &f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
