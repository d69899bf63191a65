package mechanism_test

import (
	"testing"

	"pmemaccel"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/workload"
)

// TestSPOracleCountMatchesDurableLogScan pins SP's durable instant: the
// oracle counts a transaction when its commit record lands in the
// durable image, so at every stop of a RunToCycle ladder its per-core
// count equals a full rescan of the durable log — on a core-private
// workload and on the shared one, whose recovery replays the logs in
// global durable-commit order. The recovered image must match the
// oracle at every stop too.
func TestSPOracleCountMatchesDurableLogScan(t *testing.T) {
	for _, b := range []workload.Benchmark{workload.SPS, workload.BankShared} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			cfg := pmemaccel.DefaultConfig(b, pmemaccel.SP)
			cfg.Cores = 4
			cfg.Scale = 128
			cfg.InitialSize = 300
			cfg.Ops = 150
			s, err := pmemaccel.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stops := 0
			for cycle := uint64(251); ; cycle += 251 {
				done := s.RunToCycle(cycle)
				for c := range s.Cores {
					want := mechanism.DurableLogCommits(s.Mech, s.Durable, c)
					if got := s.Oracle.Committed(c); got != want {
						t.Fatalf("cycle %d core %d: oracle counts %d commits, durable log holds %d",
							s.Kernel.Now(), c, got, want)
					}
				}
				if diffs := pmemaccel.CheckDurable(s.ExpectedDurable(), s.RecoveredDurable(), 4); len(diffs) != 0 {
					t.Fatalf("cycle %d: recovered image diverges from the oracle: %v", s.Kernel.Now(), diffs)
				}
				stops++
				if done {
					break
				}
			}
			if err := s.StreamErr(); err != nil {
				t.Fatal(err)
			}
			for c := range s.Cores {
				if got := s.Oracle.Committed(c); got != uint64(cfg.Ops) {
					t.Errorf("core %d: %d commits at quiescence, want %d", c, got, cfg.Ops)
				}
			}
			if stops < 20 {
				t.Errorf("ladder made only %d stops", stops)
			}
		})
	}
}
