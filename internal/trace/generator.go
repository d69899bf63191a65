package trace

// Generator is a pull-based Reader that produces records on demand
// instead of replaying a materialized trace: when its bounded buffer
// runs dry, it invokes a step function that emits the next batch (one
// workload operation's records). Memory is O(largest single batch), not
// O(trace length) — the streaming pipeline's core primitive.
//
// A Generator is single-use and core-private: the step function runs
// inside the owning core's Next calls and touches only that core's
// state.
type Generator struct {
	// step emits the next batch of records through emit and reports
	// whether more batches remain. Returning an error (or more=false)
	// ends the stream; the error is sticky and surfaced by Err.
	step func(emit func(Record)) (more bool, err error)
	// check, when set, validates each record as it flows to the
	// consumer. A check failure ends the stream with a sticky error.
	check func(Record) error
	// emitFn is the method value g.emit, bound once so a refill does not
	// allocate a fresh closure per workload operation.
	emitFn func(Record)

	buf  []Record
	pos  int
	done bool
	err  error

	produced uint64
}

// NewGenerator returns a generator over step. step is called each time
// the buffer empties; it may emit any number of records (including
// zero) per call.
func NewGenerator(step func(emit func(Record)) (more bool, err error)) *Generator {
	g := &Generator{step: step}
	g.emitFn = g.emit
	return g
}

// SetCheck installs a per-record validator applied to each record as it
// is pulled. The first failure ends the stream and is reported by Err.
func (g *Generator) SetCheck(fn func(Record) error) { g.check = fn }

// Next implements Reader: it drains the buffer and refills it from the
// step function as needed.
func (g *Generator) Next() (Record, bool) {
	for g.pos >= len(g.buf) {
		if g.done {
			return Record{}, false
		}
		g.buf = g.buf[:0]
		g.pos = 0
		more, err := g.step(g.emitFn)
		if err != nil {
			g.fail(err)
			return Record{}, false
		}
		if !more {
			g.done = true
		}
	}
	rec := g.buf[g.pos]
	g.pos++
	if g.check != nil {
		if err := g.check(rec); err != nil {
			g.fail(err)
			return Record{}, false
		}
	}
	g.produced++
	return rec, true
}

// emit appends one record to the bounded buffer; the step function
// receives it as its output channel.
func (g *Generator) emit(rec Record) { g.buf = append(g.buf, rec) }

// fail records the first error and terminates the stream, discarding
// any buffered records (a failed stream must not keep feeding the
// consumer).
func (g *Generator) fail(err error) {
	if g.err == nil {
		g.err = err
	}
	g.done = true
	g.buf = g.buf[:0]
	g.pos = 0
}

// Err returns the sticky stream error: a step failure or a per-record
// check violation. Consumers see an exhausted stream either way, so the
// driver must surface Err after the run.
func (g *Generator) Err() error { return g.err }

// Produced reports how many records the generator has handed out.
func (g *Generator) Produced() uint64 { return g.produced }
