// Package mechanism implements the four persistence schemes the paper
// evaluates (§5.1) as pluggable strategies over the shared simulator:
//
//   - Optimal — native execution, no persistence guarantee;
//   - SP — software-supported persistence: redo write-ahead logging with
//     clwb/sfence write-order control (Figures 2(b) and 3(a));
//   - TCache — this paper's transaction-cache accelerator;
//   - Kiln — the nonvolatile-LLC baseline [23] that flushes transaction
//     data into the LLC at commit and pins uncommitted lines there.
//
// A mechanism contributes: cache-hierarchy hooks, a per-core trace
// rewriter (SP injects its logging code), the cpu.Persistence behaviour at
// commits and persistent stores, a call to the recovery oracle at each
// transaction's durable instant, and a Recover procedure that turns a
// crash-time durable state into the post-recovery NVM image and counts
// the work of that walk.
package mechanism

import (
	"fmt"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
)

// Kind identifies one of the four evaluated schemes.
type Kind int

const (
	// Optimal is native execution without persistence support.
	Optimal Kind = iota
	// SP is software-supported persistence (write-ahead logging).
	SP
	// TCache is the paper's transaction-cache accelerator.
	TCache
	// Kiln is the nonvolatile-LLC prior design [23].
	Kiln
)

// All lists the mechanisms in the paper's comparison order.
var All = []Kind{SP, TCache, Kiln, Optimal}

// String names the mechanism as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Optimal:
		return "optimal"
	case SP:
		return "sp"
	case TCache:
		return "tcache"
	case Kiln:
		return "kiln"
	default:
		return fmt.Sprintf("mechanism(%d)", int(k))
	}
}

// ParseKind maps a name to a Kind.
func ParseKind(name string) (Kind, error) {
	for _, k := range All {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mechanism: unknown kind %q", name)
}

// Description returns the §5.1 one-liner.
func (k Kind) Description() string {
	switch k {
	case Optimal:
		return "Native execution without persistence overhead."
	case SP:
		return "Software write-ahead logging with clwb/sfence write ordering."
	case TCache:
		return "Nonvolatile transaction cache beside the hierarchy (this work)."
	case Kiln:
		return "Nonvolatile LLC with hardware commit flushes (prior work)."
	default:
		return "unknown"
	}
}

// MemPort is the mechanisms' port into main memory: the write half of
// the cache.Memory request surface (no mechanism reads memory) plus the
// memory-side state SP's pcommit stall waits on, the NVM write queues,
// with the notification that they drained. It is implemented by
// memctrl.Backend; mechanisms never see the topology — per-channel FIFO
// durability ordering is the backend's contract.
type MemPort interface {
	// Write retires a line towards memory. apply fires at durability
	// time, then onDurable (either may be the zero Event).
	Write(lineAddr uint64, apply, onDurable sim.Event)
	// WriteTracked is Write marking a flight token, nil unless the
	// write's transaction is flight-sampled (the TC's drain writes).
	WriteTracked(lineAddr uint64, apply, onDurable sim.Event, w *obs.FlightWrite)
	// PendingNVMWrites reports queued, unissued writes summed across
	// the NVM channels.
	PendingNVMWrites() int
	// OnNVMDrain subscribes fn to the NVM write queues' drain: fn runs,
	// in the kernel's tick phase, each time PendingNVMWrites drops to
	// zero (a channel issued the space's last queued write).
	OnNVMDrain(fn func())
}

// TCIntrospector is the optional interface a mechanism implements when it
// deploys per-core transaction caches. The system layer uses it — via a
// declared type assertion, not an anonymous one — to register TC
// occupancy sources with the observability sampler and to collect TC
// stats into the Result.
type TCIntrospector interface {
	// TC returns core's transaction cache.
	TC(core int) *txcache.TxCache
	// TCStatsAll returns every core's transaction cache counters.
	TCStatsAll() []txcache.Stats
}

// Env is the shared simulator state a mechanism plugs into.
type Env struct {
	K     *sim.Kernel
	Cores int
	// Mem is the main-memory port (the multi-channel backend).
	Mem MemPort
	// Live is the volatile shadow image: the newest architectural value
	// of every line, updated at store retirement.
	Live *memimage.Image
	// Durable is the NVM content that survives a crash.
	Durable *memimage.Image
	// TC configures the per-core transaction caches (TCache only).
	TC txcache.Config
	// Obs is the run's observer, nil when disabled. Mechanisms hand it
	// to the components they build (the TCache's per-core transaction
	// caches); their own behaviour is observed through the core
	// (commit-wait spans) and hierarchy (flush spans).
	Obs *obs.Sink
	// Arb is the shared-line ownership arbiter, non-nil only when the
	// workload has a cross-core shared region. Mechanisms with a
	// conflict window (in-transaction stores that must not interleave
	// with another core's on the same line) arbitrate through it; SP
	// ignores it — redo logging has no conflict window in this trace
	// model, because in-place stores happen after commit and recovery
	// replays logs in global commit order.
	Arb *txcache.LineArbiter
	// Oracle is the commit-order recovery oracle. Every mechanism calls
	// Oracle.Commit(core) at the instant each transaction becomes
	// durably committed, so the oracle folds write sets in the global
	// durable-commit order.
	Oracle *trace.Oracle
}

// Mechanism is the strategy interface.
type Mechanism interface {
	cpu.Persistence

	// Hooks returns the cache-hierarchy hooks to build the hierarchy
	// with.
	Hooks() cache.Hooks
	// Attach hands the built hierarchy to the mechanism (Kiln commits
	// flush through it).
	Attach(h *cache.Hierarchy)
	// Rewrite wraps a workload trace reader with mechanism-injected
	// instructions (SP logging); identity for the others.
	Rewrite(core int, r trace.Reader) trace.Reader
	// Drained reports whether all persistence machinery has quiesced.
	Drained() bool
	// Recover builds the post-recovery NVM image from a crash-time
	// durable image (plus the mechanism's own nonvolatile state), and
	// counts the reboot-time work of that one walk over the nonvolatile
	// state.
	Recover(durable *memimage.Image) (*memimage.Image, RecoveryCost)
}

// RecoveryCost is a coarse reboot-time work estimate: how many
// nonvolatile items recovery scans, how many NVM writes it issues, and a
// cycle estimate assuming the Table 2 NVM timings (152-cycle writes
// across 32 banks, ~40-cycle scans).
type RecoveryCost struct {
	ScannedItems int
	NVMWrites    int
	EstCycles    uint64
}

// recoveryCost applies the shared cost model to a walk's counts.
func recoveryCost(scanned, writes int) RecoveryCost {
	const (
		scanCost      = 40  // one NVM read-ish step per scanned item
		writeCost     = 152 // NVM write latency
		bankParallism = 32
	)
	return RecoveryCost{
		ScannedItems: scanned,
		NVMWrites:    writes,
		EstCycles:    uint64(scanned)*scanCost/bankParallism + uint64(writes)*writeCost/bankParallism,
	}
}

// New builds the mechanism of the given kind over env.
func New(kind Kind, env *Env) Mechanism {
	switch kind {
	case Optimal:
		return newOptimal(env)
	case SP:
		return newSP(env)
	case TCache:
		return newTCache(env)
	case Kiln:
		return newKiln(env)
	default:
		panic(fmt.Sprintf("mechanism: unknown kind %d", int(kind)))
	}
}

// liveCopier is the WritebackApply of the mechanisms whose durable image
// takes a written-back line's live contents (Optimal and SP): the
// durable update copies the live line at durability time.
type liveCopier struct {
	env    *Env
	copyFn func(lineAddr uint64)
}

func newLiveCopier(env *Env) *liveCopier {
	lc := &liveCopier{env: env}
	lc.copyFn = lc.copyLine
	return lc
}

func (lc *liveCopier) copyLine(lineAddr uint64) { lc.env.Durable.CopyLine(lc.env.Live, lineAddr) }

// apply returns the durable update for a written-back line: a copy of
// the live line for persistent lines, the zero Event for volatile ones.
func (lc *liveCopier) apply(lineAddr uint64) sim.Event {
	if !memaddr.IsPersistent(lineAddr) {
		return sim.Event{}
	}
	return sim.Event{Fn: lc.copyFn, Arg: lineAddr}
}
