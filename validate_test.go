package pmemaccel

// Config.Validate tests: the root validator must reject nonsense shapes
// with descriptive errors (NewSystem calls it through withDefaults, so a
// bad config fails fast instead of producing a silently wrong machine)
// and accept everything DefaultConfig produces, at Scale 64 and at the
// full Table 2 Scale 1.

import (
	"math"
	"strings"
	"testing"

	"pmemaccel/internal/workload"
)

func TestValidateAcceptsStockConfigs(t *testing.T) {
	for _, b := range workload.All {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			if err := DefaultConfig(b, m).Validate(); err != nil {
				t.Errorf("DefaultConfig(%v, %v): %v", b, m, err)
			}
			full := DefaultConfig(b, m)
			full.Scale, full.Ops = 1, 40_000
			if err := full.Validate(); err != nil {
				t.Errorf("DefaultConfig(%v, %v) at Scale 1: %v", b, m, err)
			}
		}
	}
	// The zero config validates too: every zero field selects a default.
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error message
	}{
		{"negative cores", func(c *Config) { c.Cores = -2 }, "Cores"},
		{"negative ops", func(c *Config) { c.Ops = -1 }, "Ops"},
		{"non-power-of-two scale", func(c *Config) { c.Scale = 48 }, "power of two"},
		{"negative scale", func(c *Config) { c.Scale = -4 }, "power of two"},
		{"high-water above 1", func(c *Config) { c.TCHighWaterFrac = 1.5 }, "TCHighWaterFrac"},
		{"high-water NaN", func(c *Config) { c.TCHighWaterFrac = math.NaN() }, "TCHighWaterFrac"},
		{"contention NaN", func(c *Config) { c.ContentionPct = math.NaN() }, "ContentionPct"},
		{"tc size not a whole number of lines", func(c *Config) { c.TCBytes = 100 }, "transaction cache"},
		{"negative tc size", func(c *Config) { c.TCBytes = -64 }, "transaction cache"},
		{"unknown mechanism", func(c *Config) { c.Mechanism = Kind(9) }, "Mechanism"},
		{"unknown nvm tech", func(c *Config) { c.NVMTech = NVMTech(7) }, "NVMTech"},
		{"negative MLP", func(c *Config) { c.MLP = -1 }, "MLP"},
		{"scale leaves the LLC no sets", func(c *Config) { c.Scale = 1 << 17 }, "LLC"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(workload.RBTree, TCache)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewSystemRejectsBadConfig: validation is wired into construction,
// not just available as an optional call.
func TestNewSystemRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(workload.RBTree, TCache)
	cfg.Scale = 3
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NewSystem accepted Scale=3 (not a power of two)")
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted Scale=3")
	}
	// An unknown mechanism used to pass Validate and panic in
	// mechanism.New after every core's workload was generated.
	if _, err := NewSystem(DefaultConfig(workload.RBTree, Kind(9))); err == nil {
		t.Fatal("NewSystem accepted Mechanism 9")
	}
	// NaN passes a `x < 0 || x > 1` range check; a NaN high-water mark
	// used to make every TC write fall back.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.TCHighWaterFrac = math.NaN() },
		func(c *Config) { c.ContentionPct = math.NaN() },
	} {
		cfg := DefaultConfig(workload.BankShared, TCache)
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("NewSystem with a NaN fraction: err = %v, want one naming NaN", err)
		}
	}
}
