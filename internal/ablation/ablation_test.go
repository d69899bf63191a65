package ablation

import (
	"strings"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

func fastBase(b workload.Benchmark) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(b, pmemaccel.TCache)
	cfg.Cores = 2
	cfg.Scale = 256
	cfg.InitialSize = 800
	cfg.Ops = 400
	return cfg
}

func TestTCSizeSweepMonotoneAtExtremes(t *testing.T) {
	s, err := TCSize(fastBase(workload.SPS), []int{256, 4096}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	tiny, big := s.Points[0], s.Points[1]
	if tiny.Throughput >= big.Throughput {
		t.Errorf("256B TC throughput %.3f not below 4KB %.3f", tiny.Throughput, big.Throughput)
	}
	if tiny.FallbackWrites == 0 {
		t.Error("256B TC produced no fallback writes")
	}
	if big.FallbackWrites != 0 {
		t.Errorf("4KB TC produced %d fallback writes on a 2-store tx benchmark", big.FallbackWrites)
	}
}

func TestHighWaterSweep(t *testing.T) {
	s, err := HighWater(fastBase(workload.BTree), []float64{0.5, 1.0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A lower high-water mark triggers the fall-back earlier: never
	// fewer fallback writes than the 1.0 (disabled) setting.
	if s.Points[0].FallbackWrites < s.Points[1].FallbackWrites {
		t.Errorf("high-water 0.5 fallbacks %d < 1.0 fallbacks %d",
			s.Points[0].FallbackWrites, s.Points[1].FallbackWrites)
	}
}

func TestMLPSweepHelpsIndependentLoads(t *testing.T) {
	// sps loads are independent: a wider MLP window must not hurt and
	// should help.
	s, err := MLP(fastBase(workload.SPS), []int{1, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Points[1].Throughput < s.Points[0].Throughput*0.98 {
		t.Errorf("MLP 8 throughput %.3f below MLP 1 %.3f", s.Points[1].Throughput, s.Points[0].Throughput)
	}
}

func TestSweepTableRenders(t *testing.T) {
	s, err := TCSize(fastBase(workload.SPS), []int{512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Table()
	for _, want := range []string{"TC capacity", "tx/kcycle", "512B"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestNVMTechnologySweep(t *testing.T) {
	s, err := NVMTechnology(fastBase(workload.SPS), pmemaccel.NVMTechs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	// PCM's 10x slower writes must not beat STT-RAM.
	sttram, pcm := s.Points[0], s.Points[1]
	if pcm.Throughput > sttram.Throughput {
		t.Errorf("PCM throughput %.3f above STT-RAM %.3f", pcm.Throughput, sttram.Throughput)
	}
}
