package pmemaccel

import (
	"fmt"

	"pmemaccel/internal/workload"
)

// PaperInstructionTarget is the paper's evaluation window: each §5
// experiment executes 1.7 G dynamic instructions (summed across the four
// cores). Paper-scale runs size their op count to land in this class.
const PaperInstructionTarget = 1_700_000_000

// paperScaleMaxCycles bounds a paper-scale run. The default 2 G-cycle
// bound assumes tens-of-millions-of-instruction windows; a 1.7 G-
// instruction window at sub-1 IPC under the slower mechanisms needs far
// more headroom.
const paperScaleMaxCycles = 64_000_000_000

// PaperScale returns the configuration resized to a
// PaperInstructionTarget-class instruction window: Ops set from a short
// per-benchmark calibration sample, and the cycle bound raised to match.
// Generation streams, so the run needs O(structure) memory at any length.
// Machine geometry (Scale, channels, caches) is left untouched, so
// paper-scale composes with any machine configuration.
func (c Config) PaperScale() (Config, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return cfg, err
	}
	p := workload.DefaultParams(cfg.Benchmark, 0, cfg.Cores, cfg.Seed, cfg.InitialSize, workload.CalibrationOps)
	perOp, err := workload.InstructionsPerOp(cfg.Benchmark, p)
	if err != nil {
		return cfg, fmt.Errorf("pmemaccel: paper scale: %w", err)
	}
	ops := int(PaperInstructionTarget / (perOp * float64(cfg.Cores)))
	if ops < 1 {
		ops = 1
	}
	cfg.Ops = ops

	if cfg.MaxCycles < paperScaleMaxCycles {
		cfg.MaxCycles = paperScaleMaxCycles
	}
	return cfg, nil
}
