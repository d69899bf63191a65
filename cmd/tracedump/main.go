// Command tracedump prints a workload's memory-reference trace — and,
// with -mech sp, the trace as the software-logging rewriter transforms it
// — for inspection and debugging. With -trace it instead reads a Chrome
// trace_event JSON written by pmemsim -trace-out, filtering by event
// kind and summarizing per-kind duration percentiles.
//
// Usage:
//
//	tracedump -bench rbtree -n 60
//	tracedump -bench sps -mech sp -n 80      # see the injected logging
//	tracedump -bench btree -stats            # composition summary only
//	tracedump -trace run.json -summary       # per-kind duration percentiles
//	tracedump -trace run.json -kind tc-drain -n 20
//	tracedump -trace run.json -flow          # list flight-recorder chains
//	tracedump -trace run.json -tx 17         # one tx's stage waterfall
//	tracedump -trace run.json -check-flows   # CI gate: flows well-formed, no drops
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
	"pmemaccel/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "rbtree", "benchmark")
		mechName  = flag.String("mech", "", "rewrite view: sp (empty = raw trace)")
		n         = flag.Int("n", 50, "records to print")
		skip      = flag.Int("skip", 0, "records to skip first")
		initial   = flag.Int("initial", 500, "prepopulated elements")
		ops       = flag.Int("ops", 20, "measured operations")
		seed      = flag.Uint64("seed", 1, "random seed")
		statsOnly = flag.Bool("stats", false, "print composition summary only")

		traceFile  = flag.String("trace", "", "read a Chrome trace JSON (pmemsim -trace-out) instead of generating a workload trace")
		kind       = flag.String("kind", "", "with -trace: keep only events of this kind (e.g. tx, tc-drain, wpq-drain)")
		summary    = flag.Bool("summary", false, "with -trace: print per-kind counts and duration percentiles")
		txID       = flag.Int64("tx", -1, "with -trace: print one transaction's flight-recorded span chain as an indented waterfall (matches the tx id on any core)")
		flows      = flag.Bool("flow", false, "with -trace: list every flight-recorder flow chain (one line per sampled transaction)")
		checkFlows = flag.Bool("check-flows", false, "with -trace: validate flow-event well-formedness and zero per-kind ring drops; non-zero exit on violation")
	)
	flag.Parse()

	if *traceFile != "" {
		if err := dumpChromeTrace(*traceFile, *kind, *summary, *txID, *flows, *checkFlows, *n, *skip); err != nil {
			fatal(err)
		}
		return
	}
	if *kind != "" || *summary || *txID >= 0 || *flows || *checkFlows {
		fatal(fmt.Errorf("-kind, -summary, -tx, -flow and -check-flows need -trace <file>"))
	}

	b, err := workload.ParseBenchmark(*benchName)
	if err != nil {
		fatal(err)
	}
	p := workload.DefaultParams(b, 0, 1, *seed, *initial, *ops)
	out, err := workload.NewStream(b, p)
	if err != nil {
		fatal(err)
	}

	if *statsOnly {
		s := trace.Summarize(out.NewReader())
		if err := out.StreamErr(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d records, %d instructions\n", b, s.Records, s.Instructions)
		fmt.Printf("  loads:  %d (%d persistent)\n", s.Loads, s.PersistentLoads)
		fmt.Printf("  stores: %d (%d persistent)\n", s.Stores, s.PersistentStores)
		fmt.Printf("  transactions: %d (max %d persistent stores in one)\n",
			s.Transactions, s.MaxTxStores)
		return
	}

	rd := out.NewReader()
	if *mechName == "sp" {
		// Build a minimal environment just to drive the rewriter.
		k := sim.NewKernel()
		backend, berr := memctrl.NewBackend(k, memctrl.Topology{},
			memctrl.Config{Name: "NVM"}, memctrl.Config{Name: "DRAM"})
		if berr != nil {
			fatal(berr)
		}
		env := &mechanism.Env{
			K: k, Cores: 1,
			Mem:     backend,
			Live:    memimage.New(),
			Durable: memimage.New(),
			TC:      txcache.Config{},
		}
		rd = mechanism.New(mechanism.SP, env).Rewrite(0, rd)
	} else if *mechName != "" {
		fatal(fmt.Errorf("only -mech sp rewrites the trace"))
	}

	for i := 0; i < *skip+*n; i++ {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		if i >= *skip {
			fmt.Printf("%5d  %s\n", i, format(rec))
		}
	}
	// A failed generator looks exhausted: surface its error instead of
	// passing a truncated dump off as the whole trace.
	if err := out.StreamErr(); err != nil {
		fatal(err)
	}
}

func format(r trace.Record) string {
	switch r.Kind {
	case trace.KindCompute:
		return fmt.Sprintf("compute  x%d", r.N)
	case trace.KindLoad:
		dep := ""
		if r.Dep {
			dep = " (dep)"
		}
		return fmt.Sprintf("load     %#x [%s]%s", r.Addr, memaddr.Classify(r.Addr), dep)
	case trace.KindStore:
		return fmt.Sprintf("store    %#x [%s] <- %d", r.Addr, memaddr.Classify(r.Addr), r.Value)
	case trace.KindTxBegin:
		return fmt.Sprintf("tx_begin %d", r.TxID)
	case trace.KindTxEnd:
		return fmt.Sprintf("tx_end   %d", r.TxID)
	case trace.KindCLWB:
		return fmt.Sprintf("clwb     %#x", memaddr.LineAddr(r.Addr))
	case trace.KindCLFlush:
		return fmt.Sprintf("clflush  %#x", memaddr.LineAddr(r.Addr))
	case trace.KindSFence:
		return "sfence"
	default:
		return fmt.Sprintf("%+v", r)
	}
}

// dumpChromeTrace reads an exported event trace back and either lists
// its events (filtered by kind, honoring -skip/-n) or renders the
// per-kind summary: spans aggregate into duration histograms —
// count/mean/p50/p90/p99/max rows via the metrics package — and
// instants into counters.
func dumpChromeTrace(path, kind string, summary bool, txID int64, flows, checkFlows bool, n, skip int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := obs.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	if checkFlows {
		return checkFlowHealth(path, data)
	}
	if txID >= 0 || flows {
		return dumpFlows(path, data, txID, n, skip)
	}
	events := data.Events
	if kind != "" {
		kept := events[:0]
		for _, e := range events {
			if e.Name == kind {
				kept = append(kept, e)
			}
		}
		events = kept
		if len(events) == 0 {
			return fmt.Errorf("%s has no %q events", path, kind)
		}
	}

	if summary {
		reg := metrics.NewRegistry()
		for _, e := range events {
			if e.Span() {
				reg.Histogram(e.Name).Observe(e.Dur)
			} else {
				reg.Counter(e.Name).Inc()
			}
		}
		fmt.Printf("%s: %d events", path, len(events))
		if d := data.OtherData["dropped"]; d != "" && d != "0" {
			fmt.Printf(" (ring dropped %s — this is a suffix of the run)", d)
		}
		fmt.Printf("\nspan durations in cycles; instants listed as counters\n\n")
		fmt.Print(reg.Snapshot().Table())
		return nil
	}

	for i := skip; i < len(events) && i < skip+n; i++ {
		e := events[i]
		if e.Span() {
			fmt.Printf("%5d  %12d +%-8d %-14s pid=%d tid=%d id=%d arg=%d\n",
				i, e.Ts, e.Dur, e.Name, e.Pid, e.Tid, e.Args["id"], e.Args["arg"])
		} else {
			fmt.Printf("%5d  %12d %-9s %-14s pid=%d tid=%d id=%d arg=%d\n",
				i, e.Ts, "instant", e.Name, e.Pid, e.Tid, e.Args["id"], e.Args["arg"])
		}
	}
	return nil
}

// stageSpans groups the flight recorder's stage spans by flow id, in
// first-appearance order. Spans within a chain are kept in file order,
// which WriteChromeTrace emits sorted by start time.
func stageSpans(data *obs.ChromeTraceData) (map[uint64][]obs.ChromeEvent, []uint64) {
	chains := map[uint64][]obs.ChromeEvent{}
	var order []uint64
	for _, e := range data.Events {
		if !e.Span() || !strings.HasPrefix(e.Name, "stage:") {
			continue
		}
		id, ok := e.Args["id"]
		if !ok {
			continue
		}
		if _, seen := chains[id]; !seen {
			order = append(order, id)
		}
		chains[id] = append(chains[id], e)
	}
	return chains, order
}

// dumpFlows renders the flight recorder's stitched transaction chains.
// With tx >= 0 it prints each matching transaction (the tx id on any
// core) as an indented waterfall; otherwise it lists one summary line
// per sampled transaction, honoring -skip/-n. Flow ids encode
// (core<<40 | tx id).
func dumpFlows(path string, data *obs.ChromeTraceData, tx int64, n, skip int) error {
	chains, order := stageSpans(data)
	if len(order) == 0 {
		return fmt.Errorf("%s has no flight-recorder stage spans (run pmemsim with -tx-sample)", path)
	}
	const txMask = uint64(1)<<40 - 1
	matched := 0
	for _, id := range order {
		core, txID := id>>40, id&txMask
		if tx >= 0 && txID != uint64(tx) {
			continue
		}
		matched++
		if tx < 0 && (matched <= skip || matched > skip+n) {
			continue
		}
		ch := chains[id]
		first, last := ch[0], ch[len(ch)-1]
		e2e := last.Ts + last.Dur - first.Ts
		if tx < 0 {
			fmt.Printf("core %2d tx %6d  flow %12d  %d stages  %8d cy  [%d..%d]\n",
				core, txID, id, len(ch), e2e, first.Ts, last.Ts+last.Dur)
			continue
		}
		fmt.Printf("core %d tx %d (flow %d): %d stages, %d cycles end-to-end\n",
			core, txID, id, len(ch), e2e)
		for i, e := range ch {
			fmt.Printf("%s%-14s %10d .. %-10d (%d cy)\n",
				strings.Repeat("  ", i+1), strings.TrimPrefix(e.Name, "stage:"),
				e.Ts, e.Ts+e.Dur, e.Dur)
		}
	}
	if matched == 0 {
		return fmt.Errorf("%s has no flight-recorded transaction with tx id %d", path, tx)
	}
	return nil
}

// checkFlowHealth is the CI smoke gate: flow events must be well-formed
// (obs.ValidateFlows) and the ring must not have dropped events of any
// kind — a dropped stage span would leave a dangling flow arrow.
func checkFlowHealth(path string, data *obs.ChromeTraceData) error {
	if err := obs.ValidateFlows(data); err != nil {
		return err
	}
	flows := 0
	for _, e := range data.Events {
		if e.Ph == "s" {
			flows++
		}
	}
	var drops []string
	for k, v := range data.OtherData {
		if strings.HasPrefix(k, "dropped_") && v != "0" {
			drops = append(drops, k+"="+v)
		}
	}
	sort.Strings(drops)
	if len(drops) > 0 {
		return fmt.Errorf("%s: ring dropped events (%s); the trace is a suffix of the run", path, strings.Join(drops, " "))
	}
	fmt.Printf("%s: %d flow chains well-formed, zero per-kind drops\n", path, flows)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}
