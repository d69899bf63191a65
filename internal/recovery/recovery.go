// Package recovery implements crash injection and recovery checking —
// the simulation-side equivalent of pulling the plug on the paper's
// system and rebooting.
//
// A trial runs a full system to an arbitrary crash cycle, discards
// everything volatile (caches, store buffers, queues), runs the
// mechanism's recovery over the durable state (NVM image plus the
// mechanism's nonvolatile structures: transaction cache contents, the
// software log, the NV-LLC), and then checks two properties per core:
//
//	atomicity  — the recovered NVM equals the base image plus exactly the
//	             write sets of the first K committed transactions of each
//	             core (the oracle's durably-committed count at the crash
//	             point), folded in durable-commit order;
//	integrity  — the recovered data structure satisfies its own
//	             invariants (a valid red-black tree, a sorted B+tree, ...).
//
// The Optimal mechanism guarantees neither; its trials demonstrate the
// problem the paper sets out to solve.
package recovery

import (
	"fmt"
	"sort"

	"pmemaccel"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/workload"
)

// Trial is the outcome of one crash experiment.
type Trial struct {
	// CrashCycle is the cycle the plug was pulled (the run may quiesce
	// earlier; FinishedEarly reports that).
	CrashCycle    uint64
	FinishedEarly bool
	// CommittedPerCore is the durably-committed transaction count per
	// core at the crash point.
	CommittedPerCore []uint64
	// AtomicityDiffs are word-level mismatches between the recovered
	// image and the commit-order oracle (empty = atomic+durable).
	AtomicityDiffs []memimage.Diff
	// IntegrityErr is the structural-validation failure, if any.
	IntegrityErr error
	// Cost estimates the reboot-time recovery work at the crash point.
	Cost mechanism.RecoveryCost
}

// OK reports whether the trial found no violation.
func (tr *Trial) OK() bool {
	return len(tr.AtomicityDiffs) == 0 && tr.IntegrityErr == nil
}

// String summarizes the trial.
func (tr *Trial) String() string {
	status := "consistent"
	if !tr.OK() {
		status = fmt.Sprintf("VIOLATION (%d word diffs, integrity: %v)",
			len(tr.AtomicityDiffs), tr.IntegrityErr)
	}
	return fmt.Sprintf("crash@%d committed=%v recovery{scan=%d writes=%d ~%dcy}: %s",
		tr.CrashCycle, tr.CommittedPerCore, tr.Cost.ScannedItems, tr.Cost.NVMWrites,
		tr.Cost.EstCycles, status)
}

// RunTrial builds a system from cfg, runs it to crashCycle, crashes, and
// checks recovery. A workload generator that failed before the crash is
// an error: its core saw a truncated trace, so the trial would check a
// run that never happened.
func RunTrial(cfg pmemaccel.Config, crashCycle uint64) (*Trial, error) {
	s, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return crash(s, crashCycle)
}

// crash is RunTrial on a built system. CommittedPerCore has one entry
// per built core: the caller's Config.Cores may be 0 (the default
// width).
func crash(s *pmemaccel.System, crashCycle uint64) (*Trial, error) {
	finished := s.RunToCycle(crashCycle)
	if err := s.StreamErr(); err != nil {
		return nil, err
	}
	tr := &Trial{CrashCycle: s.Kernel.Now(), FinishedEarly: finished}
	for c := range s.Cores {
		tr.CommittedPerCore = append(tr.CommittedPerCore, s.Oracle.Committed(c))
	}
	tr.Cost = s.Mech.RecoveryCost()
	recovered := s.RecoveredDurable()
	tr.AtomicityDiffs = pmemaccel.CheckDurable(s.ExpectedDurable(), recovered, 32)
	for _, out := range s.Outputs {
		if err := workload.CheckImage(out.Benchmark, out.Meta, recovered); err != nil {
			tr.IntegrityErr = err
			break
		}
	}
	return tr, nil
}

// Sweep crashes one system at n pseudo-random cycles within (0, horizon],
// in ascending order: RunToCycle resumes where the previous crash point
// stopped and the recovery checks are pure queries, so every point sees
// exactly the state an independent RunTrial at that cycle would. Trials
// are returned in draw order with the count of violations; on an error
// Sweep returns no trials.
//
// A zero horizon (a workload that quiesced immediately, or a caller
// passing the Horizon of an empty run) is a descriptive error rather
// than the panic it used to be: there is no cycle to crash into.
func Sweep(cfg pmemaccel.Config, n int, horizon uint64, seed uint64) ([]*Trial, int, error) {
	if horizon == 0 {
		return nil, 0, fmt.Errorf(
			"recovery: crash horizon is 0 for %v/%v (the workload quiesced immediately or the run was empty); nothing to crash into",
			cfg.Benchmark, cfg.Mechanism)
	}
	rng := sim.NewRNG(seed)
	cycles := make([]uint64, n)
	order := make([]int, n)
	for i := range cycles {
		cycles[i] = rng.Uint64n(horizon) + 1
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cycles[order[a]] < cycles[order[b]] })

	s, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	trials := make([]*Trial, n)
	violations := 0
	for _, i := range order {
		tr, err := crash(s, cycles[i])
		if err != nil {
			return nil, 0, fmt.Errorf("trial %d (crash@%d): %w", i, cycles[i], err)
		}
		trials[i] = tr
		if !tr.OK() {
			violations++
		}
	}
	return trials, violations, nil
}

// Horizon estimates a crash horizon by running the workload once to
// completion and returning its cycle count.
func Horizon(cfg pmemaccel.Config) (uint64, error) {
	res, err := pmemaccel.Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}
