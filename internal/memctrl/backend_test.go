package memctrl

import (
	"strings"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/sim"
)

func dramTestConfig() Config {
	return Config{Name: "DRAM", Banks: 4, ReadHit: 13, ReadMiss: 40, WriteHit: 13, WriteMiss: 40}
}

func TestBackendDispatch(t *testing.T) {
	k := sim.NewKernel()
	b, err := NewBackend(k, Topology{}, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var nvmDone, dramDone, logDone bool
	b.Read(memaddr.NVMBase, sim.Event{Fn: func(uint64) { nvmDone = true }})
	b.Read(memaddr.DRAMBase, sim.Event{Fn: func(uint64) { dramDone = true }})
	b.Write(memaddr.NVMLogBase, sim.Event{}, sim.Event{Fn: func(uint64) { logDone = true }})
	k.RunUntil(func() bool { return nvmDone && dramDone && logDone }, 10000)
	if b.NVMStats().Reads != 1 || b.DRAMStats().Reads != 1 {
		t.Fatalf("backend misdispatched: NVM %d reads, DRAM %d reads",
			b.NVMStats().Reads, b.DRAMStats().Reads)
	}
	if b.NVMStats().Writes != 1 {
		t.Fatal("log write did not reach the NVM space")
	}
	if !b.Quiescent() {
		t.Fatal("backend not quiescent after all completions")
	}
	if err := b.Fault(); err != nil {
		t.Fatalf("mapped traffic recorded a fault: %v", err)
	}
}

func TestBackendUnmappedAddressFaults(t *testing.T) {
	k := sim.NewKernel()
	b, err := NewBackend(k, Topology{}, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.For(4); err == nil {
		t.Fatal("For accepted an unmapped address")
	}
	// The request must still complete (the machine drains) and the fault
	// must be sticky and descriptive.
	done := false
	b.Read(4, sim.Event{Fn: func(uint64) { done = true }})
	b.Write(8, sim.Event{}, sim.Event{})
	k.RunUntil(func() bool { return done }, 100)
	if !done {
		t.Fatal("unmapped read never completed — simulation would deadlock")
	}
	ferr := b.Fault()
	if ferr == nil {
		t.Fatal("unmapped request left no fault")
	}
	if !strings.Contains(ferr.Error(), "0x4") {
		t.Fatalf("fault does not name the first offending address: %v", ferr)
	}
	if !b.Quiescent() {
		t.Fatal("faulted backend not quiescent")
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("default topology rejected: %v", err)
	}
	bad := []Topology{
		{NVMChannels: -1, DRAMChannels: 1, InterleaveBytes: 4096},
		{NVMChannels: 1, DRAMChannels: -2, InterleaveBytes: 4096},
		{NVMChannels: 1, DRAMChannels: 1, InterleaveBytes: 32},   // below line size
		{NVMChannels: 1, DRAMChannels: 1, InterleaveBytes: 3000}, // not a power of two
	}
	for _, topo := range bad {
		if err := topo.WithDefaults().Validate(); err == nil {
			t.Errorf("Validate accepted %+v", topo)
		}
	}
	if _, err := NewBackend(sim.NewKernel(), Topology{InterleaveBytes: 100}, testConfig(), dramTestConfig()); err == nil {
		t.Fatal("NewBackend accepted an invalid topology")
	}
}

func TestBackendInterleavesAcrossChannels(t *testing.T) {
	k := sim.NewKernel()
	topo := Topology{NVMChannels: 4, DRAMChannels: 2, InterleaveBytes: 4096}
	b, err := NewBackend(k, topo, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive 4 KB blocks must rotate round-robin over the channels.
	for blk := 0; blk < 8; blk++ {
		addr := memaddr.NVMBase + uint64(blk)*4096
		c, err := b.For(addr)
		if err != nil {
			t.Fatal(err)
		}
		if want := b.NVM()[blk%4]; c != want {
			t.Fatalf("NVM block %d mapped to %q, want channel %d", blk, c.Config().Name, blk%4)
		}
		// Every line of a block stays on the block's channel.
		if c2, _ := b.For(addr + 4096 - memaddr.LineSize); c2 != c {
			t.Fatalf("NVM block %d straddles channels", blk)
		}
	}
	for blk := 0; blk < 4; blk++ {
		c, err := b.For(memaddr.DRAMBase + uint64(blk)*4096)
		if err != nil {
			t.Fatal(err)
		}
		if want := b.DRAM()[blk%2]; c != want {
			t.Fatalf("DRAM block %d mapped to %q, want channel %d", blk, c.Config().Name, blk%2)
		}
	}
	// Log space interleaves over the NVM channels too.
	if c, _ := b.For(memaddr.NVMLogBase + 4096); c != b.NVM()[1] {
		t.Fatal("NVMLog block 1 not on NVM channel 1")
	}
	// Channel naming: indexed when a space has several channels.
	if got := b.NVM()[2].Config().Name; got != "NVM2" {
		t.Fatalf("channel name = %q, want NVM2", got)
	}
	if got := b.DRAM()[1].Config().Name; got != "DRAM1" {
		t.Fatalf("channel name = %q, want DRAM1", got)
	}
}

func TestBackendSingleChannelKeepsSeedNaming(t *testing.T) {
	b, err := NewBackend(sim.NewKernel(), Topology{}, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.NVM()[0].Config().Name; got != "NVM" {
		t.Fatalf("single NVM channel named %q, want NVM", got)
	}
	if got := b.DRAM()[0].Config().Name; got != "DRAM" {
		t.Fatalf("single DRAM channel named %q, want DRAM", got)
	}
}

func TestBackendAggregatesStatsAndWear(t *testing.T) {
	k := sim.NewKernel()
	topo := Topology{NVMChannels: 4, DRAMChannels: 1, InterleaveBytes: 4096}
	b, err := NewBackend(k, topo, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for blk := 0; blk < 8; blk++ {
		addr := memaddr.NVMBase + uint64(blk)*4096
		b.Read(addr, sim.Event{Fn: func(uint64) { reads++ }})
		b.Write(addr, sim.Event{}, sim.Event{Fn: func(uint64) { writes++ }})
		b.Write(addr, sim.Event{}, sim.Event{Fn: func(uint64) { writes++ }}) // same line again: wear hotspots
	}
	k.RunUntil(func() bool { return reads == 8 && writes == 16 }, 100000)
	if reads != 8 || writes != 16 {
		t.Fatalf("completed %d reads / %d writes, want 8/16", reads, writes)
	}
	agg := b.NVMStats()
	if agg.Reads != 8 || agg.Writes != 16 {
		t.Fatalf("aggregate = %d reads / %d writes, want 8/16", agg.Reads, agg.Writes)
	}
	per := b.NVMChannelStats()
	if len(per) != 4 {
		t.Fatalf("%d per-channel stats, want 4", len(per))
	}
	var sum uint64
	for i, s := range per {
		if s.Reads != 2 || s.Writes != 4 {
			t.Fatalf("channel %d = %d reads / %d writes, want the even 2/4 split", i, s.Reads, s.Writes)
		}
		sum += s.ReadLatencySum
		if s.ReadLatencyMax > agg.ReadLatencyMax {
			t.Fatalf("aggregate ReadLatencyMax %d below channel %d's %d", agg.ReadLatencyMax, i, s.ReadLatencyMax)
		}
	}
	if agg.ReadLatencySum != sum {
		t.Fatalf("aggregate latency sum %d != channel total %d", agg.ReadLatencySum, sum)
	}
	w := b.NVMWear()
	if w.TotalWrites() != 16 || w.LinesTouched() != 8 {
		t.Fatalf("merged wear = %d writes / %d lines, want 16/8", w.TotalWrites(), w.LinesTouched())
	}
	if w.MaxLineWrites() != 2 {
		t.Fatalf("merged max line writes = %d, want 2", w.MaxLineWrites())
	}
}

func TestBackendProbeChannelIDs(t *testing.T) {
	k := sim.NewKernel()
	b, err := NewBackend(k, Topology{NVMChannels: 2, DRAMChannels: 2}, testConfig(), dramTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewProbe(64)
	b.SetProbe(p) // must not panic; IDs are NVM 0..1, DRAM 2..3
	b.AddQueueSources(p)
	// Nil probe is the observability-off path: both must be no-ops.
	b.SetProbe(nil)
	var nilProbe *obs.Probe
	b.AddQueueSources(nilProbe)
}
