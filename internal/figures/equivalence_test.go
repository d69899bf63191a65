package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/grid_1x1_golden.txt from the current simulator output")

// equivalenceConfig is the reduced-size paperrepro cell: small enough to
// run the whole 20-cell grid in a test, large enough that every metric in
// the pinned output is nonzero.
func equivalenceConfig(b workload.Benchmark, m pmemaccel.Kind) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(b, m)
	cfg.Cores = 2
	cfg.Scale = 256
	cfg.InitialSize = 500
	cfg.Ops = 200
	return cfg
}

// renderGrid produces the full paperrepro-style report for the grid: one
// Result line per cell in grid order, every figure table, the §5.2 stall
// table and the summary. This is the byte-pinned surface.
func renderGrid(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	grid, err := Run(workload.All, Mechs, equivalenceConfig,
		func(wb workload.Benchmark, m pmemaccel.Kind, r *pmemaccel.Result) {
			fmt.Fprintf(&b, "%v\n", r)
		}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n := 6; n <= 10; n++ {
		s, err := grid.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s.Table())
		b.WriteString("\n")
	}
	b.WriteString(grid.StallTable())
	b.WriteString("\n")
	b.WriteString(grid.Summary())
	return b.String()
}

// TestDefaultTopologyOutputPinned pins the complete paperrepro grid
// output for the default topology (1 NVM channel, 1 DRAM channel)
// against a golden file generated from the pre-Backend Router code.
// Any byte of drift in any of the 20 workload x mechanism cells — cycle
// counts, miss rates, write traffic, stall fractions — fails the test,
// so the port/topology refactor is provably behaviour-preserving for the
// paper's configuration.
func TestDefaultTopologyOutputPinned(t *testing.T) {
	got := renderGrid(t)
	goldenPath := filepath.Join("testdata", "grid_1x1_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("1x1 topology output drifted from the pinned seed output.\n"+
			"If the change is intentional, regenerate with:\n"+
			"  go test ./internal/figures -run TestDefaultTopologyOutputPinned -update-golden\n%s",
			firstDiff(string(want), got))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
