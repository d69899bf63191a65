package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Track (pid) layout of the exported trace. Each probe point maps to a
// process row in Perfetto; tids within a row are core or channel
// indices.
const (
	pidCores = 0 // transaction lifecycle spans, tid = core
	pidTC    = 1 // transaction-cache activity, tid = core
	pidLLC   = 2 // shared-LLC events, tid = 0
	pidMem   = 3 // memory controllers, tid = channel (0 NVM, 1 DRAM)
)

// kindTrack maps each kind to its process row.
var kindTrack = [nKinds]int{
	KTx:           pidCores,
	KCommitWait:   pidCores,
	KTxFlush:      pidCores,
	KTCDrain:      pidTC,
	KTCCommit:     pidTC,
	KTCFull:       pidTC,
	KTCFallback:   pidTC,
	KWPQDrain:     pidMem,
	KLLCPDrop:     pidLLC,
	KSideProbe:    pidLLC,
	KTCDrainOpen:  pidTC,
	KWPQDrainOpen: pidMem,
	KTxStage:      pidCores, // overridden per stage below
}

// txStageTrack maps a flight-recorder stage index to its process row:
// core-side stages render on the core track, the TC drain stage on the
// TC track, and the memory-side stages on the controller track (their
// Event.Core is the global channel index).
func txStageTrack(stage uint64) int {
	switch {
	case stage >= 3:
		return pidMem
	case stage == 2:
		return pidTC
	default:
		return pidCores
	}
}

// chromeEvent is one trace_event JSON object. Cycles are emitted
// directly as the microsecond timestamps the format requires, so one
// displayed microsecond is one simulated cycle.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	// OtherData documents the time mapping for human readers.
	OtherData map[string]string `json:"otherData,omitempty"`
}

// namedMeta is a metadata event whose args.name is a string (the
// trace_event format requires string names here, unlike data events).
type namedMeta struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

func meta(kind string, pid, tid int, name string) namedMeta {
	m := namedMeta{Name: kind, Ph: "M", Pid: pid, Tid: tid}
	m.Args.Name = name
	return m
}

// WriteChromeTrace writes the retained events as Chrome trace_event
// JSON (the {"traceEvents": [...]} object form), loadable in Perfetto
// or chrome://tracing. Spans become complete ("X") events, instants
// thread-scoped instant ("i") events.
func (p *Probe) WriteChromeTrace(w io.Writer) error {
	if p == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	events := p.Events()

	// Which (pid, tid) rows are populated, for name metadata.
	type row struct{ pid, tid int }
	rows := map[row]bool{}

	out := make([]json.RawMessage, 0, len(events)+16)
	appendJSON := func(v interface{}) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out = append(out, b)
		return nil
	}

	// Flow stitching: every KTxStage span of one sampled transaction
	// shares a flow id; the spans are linked with s/t/f flow events so
	// Perfetto draws the cross-component journey as arrows.
	type flowPoint struct {
		ts       uint64
		pid, tid int
	}
	flows := map[uint64][]flowPoint{}
	var flowOrder []uint64

	for _, e := range events {
		pid := kindTrack[e.Kind]
		tid := int(e.Core)
		name := e.Kind.String()
		if e.Kind == KTxStage {
			pid = txStageTrack(e.Arg)
			if int(e.Arg) < len(TxStageNames) {
				name = "stage:" + TxStageNames[e.Arg]
			}
		}
		if tid < 0 || pid == pidLLC {
			tid = 0
		}
		rows[row{pid, tid}] = true
		if e.Kind == KTxStage {
			if _, seen := flows[e.ID]; !seen {
				flowOrder = append(flowOrder, e.ID)
			}
			flows[e.ID] = append(flows[e.ID], flowPoint{ts: e.Start, pid: pid, tid: tid})
		}
		ce := chromeEvent{
			Name: name,
			Ts:   e.Start,
			Pid:  pid,
			Tid:  tid,
			Args: map[string]uint64{"id": e.ID, "arg": e.Arg},
		}
		if e.End > e.Start {
			ce.Ph = "X"
			ce.Dur = e.End - e.Start
		} else if e.Start == e.End && isSpanKind(e.Kind) {
			// Zero-length span (e.g. a commit that completed in the
			// cycle it began): keep it visible as a 1-cycle slice.
			ce.Ph = "X"
			ce.Dur = 1
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if err := appendJSON(ce); err != nil {
			return err
		}
	}

	// Emit the flow events: one "s" at the first stage span, "t" steps
	// at the middle ones, one "f" (binding to the enclosing slice) at
	// the last. Single-span flights carry no arrows and are skipped.
	for _, id := range flowOrder {
		pts := flows[id]
		if len(pts) < 2 {
			continue
		}
		for i, pt := range pts {
			fe := chromeEvent{
				Name: "tx-flow", Cat: "tx", Ts: pt.ts,
				Pid: pt.pid, Tid: pt.tid, ID: itoa64(id),
			}
			switch i {
			case 0:
				fe.Ph = "s"
			case len(pts) - 1:
				fe.Ph = "f"
				fe.BP = "e"
			default:
				fe.Ph = "t"
			}
			if err := appendJSON(fe); err != nil {
				return err
			}
		}
	}

	procNames := map[int]string{
		pidCores: "cores (tx lifecycle)",
		pidTC:    "transaction caches",
		pidLLC:   "shared LLC",
		pidMem:   "memory controllers",
	}
	chanNames := map[int]string{0: "NVM", 1: "DRAM"}
	// Metadata rows sorted by (pid, tid) so the exported trace is
	// byte-for-byte reproducible (map iteration order is not).
	sorted := make([]row, 0, len(rows))
	for r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].pid != sorted[j].pid {
			return sorted[i].pid < sorted[j].pid
		}
		return sorted[i].tid < sorted[j].tid
	})
	seenPid := map[int]bool{}
	for _, r := range sorted {
		if !seenPid[r.pid] {
			seenPid[r.pid] = true
			if err := appendJSON(meta("process_name", r.pid, 0, procNames[r.pid])); err != nil {
				return err
			}
		}
		var tname string
		switch r.pid {
		case pidMem:
			tname = chanNames[r.tid]
		case pidLLC:
			tname = "LLC"
		default:
			tname = "core " + itoa(r.tid)
		}
		if err := appendJSON(meta("thread_name", r.pid, r.tid, tname)); err != nil {
			return err
		}
	}

	final := struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}{
		TraceEvents: out,
		OtherData: map[string]string{
			"time_unit":    "1 displayed us = 1 simulated cycle",
			"recorded":     itoa64(p.Recorded()),
			"dropped":      itoa64(p.Dropped()),
			"open_flushed": itoa64(p.OpenSpansFlushed()),
		},
	}
	for k, n := range p.DroppedByKind() {
		if n > 0 {
			final.OtherData["dropped_"+Kind(k).String()] = itoa64(n)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(final)
}

func isSpanKind(k Kind) bool {
	switch k {
	case KTx, KCommitWait, KTxFlush, KTCDrain, KWPQDrain, KTCFull, KTCDrainOpen, KWPQDrainOpen, KTxStage:
		return true
	}
	return false
}

func itoa(n int) string { return itoa64(uint64(n)) }

func itoa64(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
