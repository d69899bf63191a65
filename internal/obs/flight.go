package obs

// NumTxStages is the number of waterfall stages; stage i is named
// TxStageNames[i].
const NumTxStages = len(TxStageNames)

// FlightWrite is one tracked store of a sampled transaction: TC issue,
// memory controller service start (with its global channel index), and
// durable completion. A nil *FlightWrite is valid and inert, so call sites need not
// branch on whether their transaction is sampled.
type FlightWrite struct {
	fl        *flight
	tcIssue   uint64
	svcStart  uint64
	durableAt uint64
	channel   int
}

// ServiceStart records the cycle the memory controller began servicing
// the write, and the global channel index it landed on.
func (w *FlightWrite) ServiceStart(channel int, now uint64) {
	if w == nil {
		return
	}
	w.svcStart = now
	w.channel = channel
}

// flight is one in-progress sampled transaction.
type flight struct {
	core       int
	tx         uint64
	begin      uint64
	commitReq  uint64
	commitDone uint64
	committed  bool
	fallback   bool
	done       bool
	expected   int
	durable    int
	writes     []*FlightWrite
}

type flightKey struct {
	core int
	tx   uint64
}

// FlightAggregate is the reduced view of every finalized flight,
// suitable for JSON export and the figures stage-breakdown tables.
type FlightAggregate struct {
	// Sampled counts finalized flights; Open counts flights still in
	// progress at collection (begun, never finalized).
	Sampled uint64 `json:"sampled"`
	Open    uint64 `json:"open"`
	// Fallbacks counts sampled transactions that overflowed to the
	// copy-on-write fallback path.
	Fallbacks uint64 `json:"fallbacks"`
	// E2ECycles is the summed end-to-end latency of all sampled
	// flights; StageCycles breaks the same cycles out per stage
	// (indexed by TxStageNames) and sums exactly to E2ECycles.
	E2ECycles   uint64              `json:"e2e_cycles"`
	StageCycles [NumTxStages]uint64 `json:"stage_cycles"`
	// CritCount[i] counts flights whose critical-path verdict — the
	// stage that bounded completion — was stage i (first stage wins
	// ties).
	CritCount [NumTxStages]uint64 `json:"crit_count"`
}

// MeanE2E is the mean end-to-end latency per sampled transaction.
func (a FlightAggregate) MeanE2E() float64 {
	if a.Sampled == 0 {
		return 0
	}
	return float64(a.E2ECycles) / float64(a.Sampled)
}

// MeanStage is the mean cycles per sampled transaction spent in stage i.
func (a FlightAggregate) MeanStage(i int) float64 {
	if a.Sampled == 0 {
		return 0
	}
	return float64(a.StageCycles[i]) / float64(a.Sampled)
}

// FlightRecorder is the transaction flight recorder: a sampled
// per-transaction tracer that follows individual transactions end to end
// — tx begin, store issue, fence/commit wait, TC insert, drain burst,
// per-channel WPQ, NVM write completion — and reduces each sampled flight
// to an exact stage waterfall plus a critical-path verdict. Sampling is a
// pure function of the transaction id (tx % every == 0), so the sampled
// set is identical for every `-j` configuration.
//
// The stage model is a telescoping sum over checkpoints
//
//	begin ≤ commitReq ≤ commitDone ≤ tcIssue ≤ svcStart ≤ durable
//
// where the last three belong to the flight's critical write — the
// tracked write that became durable last. Stage cycles therefore sum
// exactly to the end-to-end latency (same invariant discipline as the
// per-core cycle attribution): execute + commit-wait + tc-drain +
// wpq-wait + nvm-write == durable - begin. Transactions with no tracked
// writes (SP, Kiln, Optimal, TCache fallbacks) end at commitDone with
// zero post-commit stages.
//
// Build one with NewFlightRecorder; a nil FlightRecorder is the disabled
// path, every method returning at once. Finalized flights and their
// writes are recycled through freelists, and the last looked-up flight
// is cached (drain writes of one transaction arrive in bursts), so the
// steady-state recorder allocates nothing — the full-sampling overhead
// budget in DESIGN.md §13 depends on it. Like the Sink that drives it,
// a recorder is single-goroutine.
type FlightRecorder struct {
	every   uint64
	probe   *Probe
	active  map[flightKey]*flight
	agg     FlightAggregate
	lastKey flightKey
	lastFl  *flight
	freeFl  []*flight
	freeW   []*FlightWrite
}

// NewFlightRecorder returns a recorder sampling every `every`-th transaction id
// (1 samples everything; 0 returns nil, the disabled recorder). The
// probe may be nil: stage aggregation still runs, only the KTxStage
// trace spans are skipped.
func NewFlightRecorder(every uint64, probe *Probe) *FlightRecorder {
	if every == 0 {
		return nil
	}
	return &FlightRecorder{every: every, probe: probe, active: make(map[flightKey]*flight)}
}

// Sampled reports whether transaction id tx is in the sample set. Pure
// and deterministic: identical across worker counts and sweep layouts.
func (r *FlightRecorder) Sampled(tx uint64) bool {
	return r != nil && tx%r.every == 0
}

// Begin opens a flight for a sampled transaction at its TX_BEGIN
// retirement cycle. Non-sampled ids are ignored.
func (r *FlightRecorder) Begin(core int, tx, now uint64) {
	if !r.Sampled(tx) {
		return
	}
	var fl *flight
	if n := len(r.freeFl); n > 0 {
		fl = r.freeFl[n-1]
		r.freeFl = r.freeFl[:n-1]
		*fl = flight{core: core, tx: tx, begin: now, writes: fl.writes[:0]}
	} else {
		fl = &flight{core: core, tx: tx, begin: now}
	}
	key := flightKey{core, tx}
	r.active[key] = fl
	r.lastKey, r.lastFl = key, fl
}

// find is the cached active-flight lookup: one transaction's recorder
// calls arrive in bursts, so the last flight touched usually answers.
func (r *FlightRecorder) find(core int, tx uint64) *flight {
	key := flightKey{core, tx}
	if r.lastFl != nil && r.lastKey == key {
		return r.lastFl
	}
	fl := r.active[key]
	if fl != nil {
		r.lastKey, r.lastFl = key, fl
	}
	return fl
}

// MarkFallback flags the flight as having overflowed to the
// copy-on-write fallback path.
func (r *FlightRecorder) MarkFallback(core int, tx uint64) {
	if r == nil {
		return
	}
	if fl := r.find(core, tx); fl != nil {
		fl.fallback = true
	}
}

// CommitMatched records how many TC entries the commit CAM-matched —
// the number of tracked writes the flight must see durable before it
// can finalize. Called from the TC commit path, before the core's
// Commit record in the same cycle.
func (r *FlightRecorder) CommitMatched(core int, tx uint64, entries int) {
	if r == nil {
		return
	}
	if fl := r.find(core, tx); fl != nil {
		fl.expected = entries
	}
}

// Commit records the commit-request cycle (TX_END retirement) and the
// commit-completion cycle (equal for non-stalling commits). The flight
// finalizes immediately when every expected write is already durable —
// in particular when it has no tracked writes at all.
func (r *FlightRecorder) Commit(core int, tx, reqAt, doneAt uint64) {
	if r == nil {
		return
	}
	fl := r.find(core, tx)
	if fl == nil {
		return
	}
	fl.commitReq, fl.commitDone = reqAt, doneAt
	fl.committed = true
	if fl.durable >= fl.expected {
		r.finalize(fl)
	}
}

// TCIssue records a tracked write leaving the TC for the memory backend
// and returns its FlightWrite handle for the ServiceStart/WriteDurable
// callbacks. Returns nil (safe to use) when tx is not sampled or the
// flight is unknown.
func (r *FlightRecorder) TCIssue(core int, tx, now uint64) *FlightWrite {
	if !r.Sampled(tx) {
		return nil
	}
	fl := r.find(core, tx)
	if fl == nil {
		return nil
	}
	var w *FlightWrite
	if n := len(r.freeW); n > 0 {
		w = r.freeW[n-1]
		r.freeW = r.freeW[:n-1]
		*w = FlightWrite{fl: fl, tcIssue: now, channel: -1}
	} else {
		w = &FlightWrite{fl: fl, tcIssue: now, channel: -1}
	}
	fl.writes = append(fl.writes, w)
	return w
}

// WriteDurable records the write's durable-completion cycle and
// finalizes the flight once the last expected write lands.
func (r *FlightRecorder) WriteDurable(w *FlightWrite, now uint64) {
	if r == nil || w == nil {
		return
	}
	w.durableAt = now
	fl := w.fl
	fl.durable++
	if fl.committed && fl.durable >= fl.expected {
		r.finalize(fl)
	}
}

// finalize reduces the flight to its waterfall, updates the aggregate,
// emits KTxStage spans, and retires the flight (and its writes) to the
// freelists. The done guard makes a second finalize of the same flight
// a no-op rather than a double count.
func (r *FlightRecorder) finalize(fl *flight) {
	if fl.done {
		return
	}
	fl.done = true
	delete(r.active, flightKey{fl.core, fl.tx})
	if r.lastFl == fl {
		r.lastFl = nil
	}

	// The critical write is the last to become durable; its checkpoints
	// extend the waterfall past commit.
	var crit *FlightWrite
	for _, w := range fl.writes {
		if crit == nil || w.durableAt > crit.durableAt {
			crit = w
		}
	}

	// Checkpoint boundaries; stage i spans [b[i], b[i+1]].
	var b [NumTxStages + 1]uint64
	b[0], b[1], b[2] = fl.begin, fl.commitReq, fl.commitDone
	channel := -1
	if crit != nil {
		issue, svc, dur := crit.tcIssue, crit.svcStart, crit.durableAt
		// Defensive clamps keep the telescoping sum exact even if a
		// backend path (e.g. a recorded fault) skipped a checkpoint.
		if issue < b[2] {
			issue = b[2]
		}
		if svc < issue {
			svc = issue
		}
		if dur < svc {
			dur = svc
		}
		b[3], b[4], b[5] = issue, svc, dur
		channel = crit.channel
	} else {
		b[3], b[4], b[5] = b[2], b[2], b[2]
	}

	var stages [NumTxStages]uint64
	verdict := 0
	for i := range stages {
		stages[i] = b[i+1] - b[i]
		if stages[i] > stages[verdict] {
			verdict = i
		}
	}

	r.agg.Sampled++
	r.agg.E2ECycles += b[NumTxStages] - b[0]
	for i, s := range stages {
		r.agg.StageCycles[i] += s
	}
	r.agg.CritCount[verdict]++
	if fl.fallback {
		r.agg.Fallbacks++
	}

	if r.probe != nil {
		flowID := uint64(fl.core)<<40 | fl.tx
		for i, s := range stages {
			if s == 0 {
				continue
			}
			track := fl.core
			if i >= 3 && channel >= 0 {
				track = channel
			}
			r.probe.Span(KTxStage, track, flowID, b[i], b[i+1], uint64(i))
		}
	}

	// Every tracked write is durable by now (the TC drains only
	// committed entries), so the whole flight recycles.
	for _, w := range fl.writes {
		*w = FlightWrite{}
		r.freeW = append(r.freeW, w)
	}
	r.freeFl = append(r.freeFl, fl)
}

// Aggregate returns the running aggregate, with Open set to the number
// of flights begun but never finalized (e.g. a run stopped mid-tx).
func (r *FlightRecorder) Aggregate() FlightAggregate {
	if r == nil {
		return FlightAggregate{}
	}
	a := r.agg
	a.Open = uint64(len(r.active))
	return a
}

// Enabled reports whether the recorder samples anything.
func (r *FlightRecorder) Enabled() bool { return r != nil }
