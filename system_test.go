package pmemaccel

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/workload"
)

// tinyConfig keeps unit-test runs fast while still exercising the whole
// machine.
func tinyConfig(b workload.Benchmark, m Kind) Config {
	cfg := DefaultConfig(b, m)
	cfg.Cores = 2
	cfg.Scale = 256
	cfg.InitialSize = 500
	cfg.Ops = 200
	return cfg
}

// TestScaleOneConfigBuildsTable2Machine pins the machine a Scale 1
// System resolves to: Table 2's caches, transaction cache and core. The
// workload is shrunk; it does not shape the machine.
func TestScaleOneConfigBuildsTable2Machine(t *testing.T) {
	cfg := DefaultConfig(workload.SPS, TCache)
	cfg.Scale = 1
	cfg.InitialSize = 64
	cfg.Ops = 10
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		level       *cache.SetAssoc
		bytes, ways int
	}{
		{s.Hier.L1(0), 32 << 10, 4},
		{s.Hier.L2(0), 256 << 10, 8},
		{s.Hier.LLC(), 64 << 20, 16},
	} {
		if c.level.SizeBytes() != c.bytes || c.level.Ways() != c.ways {
			t.Errorf("%s: %d bytes, %d ways; want %d bytes, %d ways",
				c.level.Name(), c.level.SizeBytes(), c.level.Ways(), c.bytes, c.ways)
		}
	}
	if tc := s.Config.tcConfig(); tc.SizeBytes != 4<<10 || tc.Entries() != 64 || tc.HighWaterFrac != 0.9 {
		t.Errorf("transaction cache %+v with %d entries; want 4 KB, 64 entries (§4.4) and high water 0.9",
			tc, tc.Entries())
	}
	if cpu.IssueWidth != 4 || cpu.StoreBuffer != 16 || s.Config.MLP != 8 {
		t.Errorf("core: issue width %d, store buffer %d, MLP %d; want 4, 16, 8",
			cpu.IssueWidth, cpu.StoreBuffer, s.Config.MLP)
	}
}

// TestMachineTableRendersTheBuilders: the Table 2 that paperrepro
// -config prints comes from the builders NewSystem uses, so each row
// carries the built machine's sizes, ways, latencies and TC capacity.
func TestMachineTableRendersTheBuilders(t *testing.T) {
	wide := DefaultConfig(workload.SPS, TCache) // paperrepro -config -cores 16 -scale 64
	wide.Cores = 16
	full := DefaultConfig(workload.SPS, Kiln)
	full.Scale = 1
	small := DefaultConfig(workload.SPS, TCache)
	small.Scale, small.TCBytes, small.NVMChannels = 256, 256, 2
	for _, cfg := range []Config{wide, full, small} {
		out := cfg.MachineTable()
		m := cfg.machine()
		cc, tc, nvm := m.cacheConfig(), m.tcConfig(), m.nvmConfig()
		for _, want := range []string{
			fmt.Sprintf("Scale %d", m.Scale),
			fmt.Sprintf("%d cores, 2 GHz, %d-issue", m.Cores, cpu.IssueWidth),
			fmt.Sprintf("L1 I/D             Private, %s/core, %s, %d-way", byteSize(cc.L1Size), latency(cache.L1Latency), cc.L1Ways),
			fmt.Sprintf("L2                 Private, %s/core, %s, %d-way", byteSize(cc.L2Size), latency(cache.L2Latency), cc.L2Ways),
			fmt.Sprintf("L3 (LLC)           Shared, %s, %s, %d-way", byteSize(cc.LLCSize), latency(cache.LLCLatency), cc.LLCWays),
			fmt.Sprintf("Private, %s/core (%d entries)", byteSize(tc.SizeBytes), tc.Entries()),
			fmt.Sprintf("%d channel(s) x %d banks, %s read, %s write", m.topology().WithDefaults().NVMChannels, nvm.Banks, latency(nvm.ReadMiss), latency(nvm.WriteMiss)),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("Scale %d, %d cores: table lacks %q:\n%s", m.Scale, m.Cores, want, out)
			}
		}
	}
	for _, want := range []string{
		"16 cores", "Private, 4 KB/core, 0.5 ns (1 cy), 4-way", "Private, 32 KB/core, 4.5 ns (9 cy), 8-way",
		"Shared, 1 MB, 10 ns (20 cy), 16-way", "Private, 4 KB/core (64 entries)", "fall-back at 90% full",
		"8/64-entry read/write queues", "65 ns (130 cy) read, 76 ns (152 cy) write",
	} {
		if out := wide.MachineTable(); !strings.Contains(out, want) {
			t.Errorf("16 cores at Scale 64: table lacks %q:\n%s", want, out)
		}
	}
}

func TestRunEveryBenchmarkEveryMechanism(t *testing.T) {
	for _, b := range workload.Extended {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			b, m := b, m
			t.Run(b.String()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				res, err := Run(tinyConfig(b, m))
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles == 0 {
					t.Fatal("zero-cycle run")
				}
				if got := res.TotalTransactions(); got != 400 {
					t.Fatalf("transactions = %d, want 400 (200 x 2 cores)", got)
				}
				if res.IPC() <= 0 {
					t.Fatal("non-positive IPC")
				}
				// Every mechanism with a guarantee leaves NVM
				// exactly at the committed state once drained.
				if m != Optimal && res.DurableDiffCount != 0 {
					t.Fatalf("%d durable diffs after full drain", res.DurableDiffCount)
				}
			})
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinyConfig(workload.RBTree, TCache))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig(workload.RBTree, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalInstructions() != b.TotalInstructions() ||
		a.NVMWriteTraffic() != b.NVMWriteTraffic() || a.LLCMissRate != b.LLCMissRate {
		t.Fatalf("identical configs diverged:\n%v\n%v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := tinyConfig(workload.SPS, Optimal)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.NVMWriteTraffic() == b.NVMWriteTraffic() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestBadScaleRejected(t *testing.T) {
	cfg := tinyConfig(workload.SPS, Optimal)
	cfg.Scale = 3
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-power-of-two scale accepted")
	}
}

func TestShapeOrderingOnSPS(t *testing.T) {
	// The paper's headline ordering must hold even at test scale:
	// throughput Optimal >= TCache > Kiln-ish > SP, and NVM writes
	// SP > TCache > Optimal.
	results := map[Kind]*Result{}
	for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
		cfg := tinyConfig(workload.SPS, m)
		cfg.Ops = 400
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[m] = res
	}
	opt, sp, tc, kiln := results[Optimal], results[SP], results[TCache], results[Kiln]
	if !(tc.Throughput() > sp.Throughput()) {
		t.Errorf("TCache throughput %.3f not above SP %.3f", tc.Throughput(), sp.Throughput())
	}
	if !(kiln.Throughput() > sp.Throughput()) {
		t.Errorf("Kiln throughput %.3f not above SP %.3f", kiln.Throughput(), sp.Throughput())
	}
	if !(tc.Throughput() >= kiln.Throughput()) {
		t.Errorf("TCache throughput %.3f below Kiln %.3f", tc.Throughput(), kiln.Throughput())
	}
	if !(sp.NVMWriteTraffic() > tc.NVMWriteTraffic()) {
		t.Errorf("SP writes %d not above TCache %d", sp.NVMWriteTraffic(), tc.NVMWriteTraffic())
	}
	if !(tc.NVMWriteTraffic() > opt.NVMWriteTraffic()) {
		t.Errorf("TCache writes %d not above Optimal %d", tc.NVMWriteTraffic(), opt.NVMWriteTraffic())
	}
	if !(kiln.NVMWriteTraffic() > opt.NVMWriteTraffic()) {
		t.Errorf("Kiln writes %d not above Optimal %d", kiln.NVMWriteTraffic(), opt.NVMWriteTraffic())
	}
}

func TestTCacheStatsPresentOnlyForTCache(t *testing.T) {
	tc, err := Run(tinyConfig(workload.Hashtable, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.TC) != 2 {
		t.Fatalf("TC stats for %d cores, want 2", len(tc.TC))
	}
	if tc.TC[0].Writes == 0 || tc.TC[0].Commits == 0 {
		t.Fatalf("TC stats empty: %+v", tc.TC[0])
	}
	opt, err := Run(tinyConfig(workload.Hashtable, Optimal))
	if err != nil {
		t.Fatal(err)
	}
	if opt.TC != nil {
		t.Fatal("Optimal run carries TC stats")
	}
}

func TestResultStringMentionsKeyMetrics(t *testing.T) {
	res, err := Run(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"sps", "tcache", "IPC", "tx/kcycle", "NVM writes"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() missing %q: %s", want, s)
		}
	}
}

func TestKilnMissRateExceedsOptimalOnSPS(t *testing.T) {
	// Figure 8's direction: Kiln's pinning and versioning raise the LLC
	// miss rate relative to Optimal/TCache. The effect needs real
	// capacity pressure, so this test runs at the default scale.
	cfg := DefaultConfig(workload.SPS, Optimal)
	opt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = Kiln
	kiln, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kiln.LLCMissRate <= opt.LLCMissRate {
		t.Errorf("Kiln LLC miss %.4f not above Optimal %.4f", kiln.LLCMissRate, opt.LLCMissRate)
	}
}

// TestExpectedDurableMatchesFinalImages: at quiescence every write set
// is folded, so on a core-private workload the expected image equals the
// program images' final persistent words, word for word in both
// directions.
func TestExpectedDurableMatchesFinalImages(t *testing.T) {
	s, err := NewSystem(tinyConfig(workload.BTree, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	final := memimage.New()
	for _, out := range s.Outputs {
		out.Recorder.Image().ForEach(func(addr, v uint64) {
			if memaddr.IsPersistent(addr) {
				final.WriteWord(addr, v)
			}
		})
	}
	if diffs := CheckDurable(s.ExpectedDurable(), final, 5); len(diffs) != 0 {
		t.Fatalf("expected image diverges from the final program images: %v", diffs)
	}
}

func TestMechanismsShareTheSameProgram(t *testing.T) {
	// Optimal, TCache and Kiln execute the identical instruction stream
	// (the mechanisms add hardware, not instructions); SP executes
	// strictly more (logging code).
	insts := map[Kind]uint64{}
	for _, m := range []Kind{Optimal, TCache, Kiln, SP} {
		res, err := Run(tinyConfig(workload.Graph, m))
		if err != nil {
			t.Fatal(err)
		}
		insts[m] = res.TotalInstructions()
	}
	if insts[Optimal] != insts[TCache] || insts[Optimal] != insts[Kiln] {
		t.Errorf("instruction counts differ: optimal=%d tcache=%d kiln=%d",
			insts[Optimal], insts[TCache], insts[Kiln])
	}
	if insts[SP] <= insts[Optimal] {
		t.Errorf("SP executed %d instructions, want more than optimal's %d (logging code)",
			insts[SP], insts[Optimal])
	}
}

func TestGuaranteedMechanismsAgreeOnFinalState(t *testing.T) {
	// All three guaranteed mechanisms must converge to the same durable
	// NVM data state after a full run of the same workload.
	var images []map[uint64]uint64
	for _, m := range []Kind{SP, TCache, Kiln} {
		s, err := NewSystem(tinyConfig(workload.SPS, m))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		img := map[uint64]uint64{}
		s.RecoveredDurable().ForEach(func(a, v uint64) {
			// Compare only the NVM data space: log layouts differ by
			// mechanism.
			if memaddr.Classify(a) == memaddr.SpaceNVM && v != 0 {
				img[a] = v
			}
		})
		images = append(images, img)
	}
	for i := 1; i < len(images); i++ {
		if len(images[i]) != len(images[0]) {
			t.Fatalf("mechanism %d durable footprint %d != %d", i, len(images[i]), len(images[0]))
		}
		for a, v := range images[0] {
			if images[i][a] != v {
				t.Fatalf("mechanisms disagree at %#x: %d vs %d", a, v, images[i][a])
			}
		}
	}
}

func TestWearAndPercentilesReported(t *testing.T) {
	res, err := Run(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	if res.NVMLinesTouched == 0 || res.NVMWearMax == 0 {
		t.Fatalf("wear not collected: %+v lines, max %d", res.NVMLinesTouched, res.NVMWearMax)
	}
	if res.NVMWearHotness < 1 {
		t.Fatalf("hotness %v < 1", res.NVMWearHotness)
	}
	if res.PloadP99 < res.PloadP50 {
		t.Fatalf("P99 %d below P50 %d", res.PloadP99, res.PloadP50)
	}
	if res.PloadP99 == 0 {
		t.Fatal("P99 is zero")
	}
}

func TestResultJSONExport(t *testing.T) {
	res, err := Run(tinyConfig(workload.SPS, TCache))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Benchmark != "sps" || e.Mechanism != "tcache" {
		t.Fatalf("export labels = %s/%s", e.Benchmark, e.Mechanism)
	}
	if e.Cycles != res.Cycles || e.Transactions != res.TotalTransactions() {
		t.Fatal("export disagrees with result")
	}
	if e.IPC <= 0 || e.NVMWrites == 0 {
		t.Fatalf("export metrics empty: %+v", e)
	}
}

func TestLargeMachineSmoke(t *testing.T) {
	// A quarter-scale machine (16 MB LLC) exercising the auto-sizing and
	// the full pipeline at realistic capacities. Skipped with -short.
	if testing.Short() {
		t.Skip("large-machine smoke skipped in -short mode")
	}
	cfg := DefaultConfig(workload.Hashtable, TCache)
	cfg.Scale = 4
	cfg.Ops = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableDiffCount != 0 {
		t.Fatalf("%d durable diffs at quarter scale", res.DurableDiffCount)
	}
	if res.TotalTransactions() != 12000 {
		t.Fatalf("transactions = %d, want 12000", res.TotalTransactions())
	}
}

// CheckDurable reports the lowest-addressed NVM mismatches, in ascending
// order, whatever order the images were written in: a truncated report
// is the same on every run.
func TestCheckDurableReportsLowestAddressesInOrder(t *testing.T) {
	expected, recovered := memimage.New(), memimage.New()
	var want []memimage.Diff
	for i := 99; i >= 0; i-- {
		addr := memaddr.NVMBase + uint64(i*1237)*memaddr.WordSize
		expected.WriteWord(addr, uint64(i)+1)
		if i%3 != 0 {
			recovered.WriteWord(addr, uint64(i)+1) // equal: no diff
			continue
		}
		if i%2 == 0 {
			recovered.WriteWord(addr, 7*uint64(i)+2)
		}
		want = append([]memimage.Diff{{Addr: addr, A: uint64(i) + 1, B: recovered.ReadWord(addr)}}, want...)
	}
	// A leaked write the expectation never mentions, and mismatches
	// outside the NVM data space, which CheckDurable ignores.
	leak := memaddr.SharedNVMBase + 64
	recovered.WriteWord(leak, 5)
	want = append(want, memimage.Diff{Addr: leak, A: 0, B: 5})
	recovered.WriteWord(memaddr.NVMLogBase, 9)
	expected.WriteWord(memaddr.DRAMBase, 9)

	if got := CheckDurable(expected, recovered, 0); !slices.Equal(got, want) {
		t.Fatalf("CheckDurable(max 0) = %+v\nwant %+v", got, want)
	}
	const max = 8
	first := CheckDurable(expected, recovered, max)
	second := CheckDurable(expected, recovered, max)
	if !slices.Equal(first, want[:max]) || !slices.Equal(second, first) {
		t.Fatalf("CheckDurable(max %d) = %+v then %+v, want the lowest %d: %+v", max, first, second, max, want[:max])
	}
}

// validateBaseImage names the lowest unmapped address, not whichever one
// iteration happens to reach first.
func TestValidateBaseImageNamesLowestUnmappedAddress(t *testing.T) {
	img := memimage.New()
	img.WriteWord(2*memaddr.NVMLogBase, 1) // above the log region
	img.WriteWord(memaddr.NVMBase, 2)      // mapped
	img.WriteWord(0x40, 3)                 // below DRAM
	img.WriteWord(0x18, 4)                 // lower still
	err := validateBaseImage(img)
	if err == nil || !strings.Contains(err.Error(), "unmapped address 0x18") {
		t.Fatalf("validateBaseImage = %v, want it to name 0x18", err)
	}
}
