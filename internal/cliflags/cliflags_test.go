package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

// pmemsimBase and crashtestBase are the base Configs the two commands
// bind, with the flags they bind.
func pmemsimBase() pmemaccel.Config {
	return pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
}

func crashtestBase() pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
	cfg.Ops, cfg.InitialSize, cfg.Scale = 800, 2000, 128
	return cfg
}

const crashtestFlags = Bench | Mech | Workload | Machine

// parse binds which over base on a fresh FlagSet that also defines the
// commands' own flags, so command lines can be given whole, and parses
// args.
func parse(base pmemaccel.Config, which Flag, args string) (pmemaccel.Config, *Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := base
	bound := Bind(fs, &cfg, which)
	fs.Int("trials", 0, "")
	fs.Bool("v", false, "")
	fs.Bool("json", false, "")
	fs.String("trace-out", "", "")
	fs.String("metrics-out", "", "")
	fs.Uint64("sample-every", 0, "")
	return cfg, bound, fs.Parse(strings.Fields(args))
}

// cfgOf is DefaultConfig(b, m) with set applied.
func cfgOf(b workload.Benchmark, m pmemaccel.Kind, set func(*pmemaccel.Config)) pmemaccel.Config {
	cfg := pmemaccel.DefaultConfig(b, m)
	set(&cfg)
	return cfg
}

// TestBindBuildsTheCIConfigs: every argument list CI passes to pmemsim
// and crashtest builds the Config the per-command flag code built before
// the binder. Obs.Enabled and Obs.SampleEvery are left out: pmemsim sets
// them from its own -trace-out, -metrics-out and -sample-every.
func TestBindBuildsTheCIConfigs(t *testing.T) {
	contended := func(m pmemaccel.Kind, cores int) pmemaccel.Config {
		return cfgOf(workload.BankShared, m, func(c *pmemaccel.Config) {
			c.Ops, c.InitialSize, c.Scale, c.Cores, c.ContentionPct = 800, 2000, 128, cores, 0.5
		})
	}
	crash := func(b workload.Benchmark, m pmemaccel.Kind, set func(*pmemaccel.Config)) pmemaccel.Config {
		return cfgOf(b, m, func(c *pmemaccel.Config) {
			c.Ops, c.InitialSize, c.Scale = 800, 2000, 128
			set(c)
		})
	}
	sim := func(b workload.Benchmark, m pmemaccel.Kind, cores, ops int, set func(*pmemaccel.Config)) pmemaccel.Config {
		return cfgOf(b, m, func(c *pmemaccel.Config) {
			c.Cores, c.Ops, c.Scale = cores, ops, 128
			set(c)
		})
	}
	none := func(*pmemaccel.Config) {}
	noFF := func(c *pmemaccel.Config) { c.NoFastForward = true }
	for _, tc := range []struct {
		base  pmemaccel.Config
		which Flag
		args  string
		want  pmemaccel.Config
	}{
		{pmemsimBase(), All, "-bench sps -mech tcache -ops 2000 -scale 128 -tx-sample 1 -trace-out /tmp/flight.json -metrics -metrics-out /tmp/m.csv",
			sim(workload.SPS, pmemaccel.TCache, 0, 2000, func(c *pmemaccel.Config) { c.Obs.TxSample, c.Obs.Metrics = 1, true })},
		{pmemsimBase(), All, "-bench bankshared -cores 16 -mech tcache -ops 300 -scale 128 -json",
			sim(workload.BankShared, pmemaccel.TCache, 16, 300, none)},
		{pmemsimBase(), All, "-bench bankshared -cores 16 -mech tcache -ops 300 -scale 128 -v -no-ff",
			sim(workload.BankShared, pmemaccel.TCache, 16, 300, noFF)},
		{pmemsimBase(), All, "-bench bankshared -cores 16 -mech tcache -ops 300 -scale 128 -no-ff -metrics-out /tmp/noff-m.csv -sample-every 4096",
			sim(workload.BankShared, pmemaccel.TCache, 16, 300, noFF)},
		{pmemsimBase(), All, "-bench bankshared -cores 16 -mech kiln -ops 300 -scale 128 -json -tx-sample 1",
			sim(workload.BankShared, pmemaccel.Kiln, 16, 300, func(c *pmemaccel.Config) { c.Obs.TxSample = 1 })},
		{pmemsimBase(), All, "-bench bankshared -cores 16 -mech optimal -ops 300 -scale 128 -json -no-ff",
			sim(workload.BankShared, pmemaccel.Optimal, 16, 300, noFF)},
		{pmemsimBase(), All, "-bench graph -mech optimal -cores 4 -ops 2000 -scale 128 -json",
			sim(workload.Graph, pmemaccel.Optimal, 4, 2000, none)},
		{pmemsimBase(), All, "-bench sps -mech sp -cores 4 -ops 2000 -scale 128 -v",
			sim(workload.SPS, pmemaccel.SP, 4, 2000, none)},
		{pmemsimBase(), All, "-bench sps -mech sp -cores 8 -ops 2000 -scale 128 -nvm-channels 2 -json -no-ff",
			sim(workload.SPS, pmemaccel.SP, 8, 2000, func(c *pmemaccel.Config) { c.NVMChannels, c.NoFastForward = 2, true })},
		{pmemsimBase(), All, "-bench sps -mech tcache -cores 16 -ops 400 -scale 128 -tc 256 -v",
			sim(workload.SPS, pmemaccel.TCache, 16, 400, func(c *pmemaccel.Config) { c.TCBytes = 256 })},

		{crashtestBase(), crashtestFlags, "-bench rbtree -mech tcache -trials 8", crash(workload.RBTree, pmemaccel.TCache, none)},
		{crashtestBase(), crashtestFlags, "-bench sps -mech sp -trials 8", crash(workload.SPS, pmemaccel.SP, none)},
		{crashtestBase(), crashtestFlags, "-bench rbtree -mech kiln -scale 256 -trials 20",
			crash(workload.RBTree, pmemaccel.Kiln, func(c *pmemaccel.Config) { c.Scale = 256 })},
		{crashtestBase(), crashtestFlags, "-bench bankshared -mech sp -cores 4 -contention 0.5 -trials 8", contended(pmemaccel.SP, 4)},
		{crashtestBase(), crashtestFlags, "-bench bankshared -mech tcache -cores 16 -contention 0.5 -trials 8", contended(pmemaccel.TCache, 16)},
		{crashtestBase(), crashtestFlags, "-bench bankshared -mech kiln -cores 64 -contention 0.5 -trials 4", contended(pmemaccel.Kiln, 64)},
		{crashtestBase(), crashtestFlags, "-bench sps -mech tcache -cores 16 -tc 256 -trials 8",
			crash(workload.SPS, pmemaccel.TCache, func(c *pmemaccel.Config) { c.Cores, c.TCBytes = 16, 256 })},
		{crashtestBase(), crashtestFlags, "-bench bankshared -mech tcache -cores 16 -tc 256 -trials 8",
			crash(workload.BankShared, pmemaccel.TCache, func(c *pmemaccel.Config) { c.Cores, c.TCBytes = 16, 256 })},
	} {
		got, _, err := parse(tc.base, tc.which, tc.args)
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		got.Obs.Enabled, got.Obs.SampleEvery = false, 0
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}

// TestBindRejectsBadValues: every bad value fails parsing with an error
// that names its flag. The -cores rows are the command-line core policy
// (a power of two up to 64); 0, 1, 4 and 64 are accepted.
func TestBindRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // error substring besides the flag's name; "" means accepted
	}{
		{"-cores 0", ""},
		{"-cores 1", ""},
		{"-cores 4", ""},
		{"-cores 64", ""},
		{"-cores -1", "must be in [1, 64]"},
		{"-cores 128", "must be in [1, 64]"},
		{"-cores 3", "power of two"},
		{"-cores 48", "power of two"},
		{"-ops -1", "Ops -1"},
		{"-ops many", "invalid syntax"},
		{"-initial -5", "InitialSize -5"},
		{"-scale -4", "Scale -4 must be a positive power of two"},
		{"-scale 3", "Scale 3 must be a positive power of two"},
		{"-scale 131072", "LLC"},
		{"-tc -64", "transaction cache"},
		{"-tc 100", "transaction cache"},
		{"-nvm-channels -1", "channel counts"},
		{"-dram-channels -2", "channel counts"},
		{"-interleave -4096", "ChannelInterleaveBytes"},
		{"-interleave 96", "power of two"},
		{"-contention 1.5", "ContentionPct 1.5"},
		{"-contention NaN", "ContentionPct NaN"},
		{"-shared-accounts -1", "SharedAccounts"},
		{"-bench nosuch", `unknown benchmark "nosuch"`},
		{"-mech nosuch", `unknown kind "nosuch"`},
		{"-seed -1", "invalid syntax"},
		{"-tx-sample -1", "invalid syntax"},
	} {
		_, _, err := parse(pmemsimBase(), All, tc.args)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want it accepted", tc.args, err)
			}
			continue
		}
		name := strings.Fields(tc.args)[0]
		if err == nil || !strings.Contains(err.Error(), "flag "+name+":") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s and containing %q", tc.args, err, name, tc.want)
		}
	}
}

// TestBindZeroMeansTheConfigZero pins the rule for explicit values: a
// flag writes its Config field, so 0 selects what the field documents in
// every command, whatever the command's own default.
func TestBindZeroMeansTheConfigZero(t *testing.T) {
	for _, base := range []pmemaccel.Config{pmemsimBase(), crashtestBase()} {
		cfg, _, err := parse(base, All, "-ops 0 -scale 0 -initial 0 -cores 0 -tc 0")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Ops != 0 || cfg.Scale != 0 || cfg.InitialSize != 0 || cfg.Cores != 0 || cfg.TCBytes != 0 {
			t.Errorf("explicit zeros left %+v", cfg)
		}
		// Scale 0 is the full Table 2 machine, as Scale 1 is.
		if hw := cfg.HardwareCost(); hw.LLCBytes != 64<<20 || hw.Cores != 4 || hw.TCBytes != 4<<10 {
			t.Errorf("zero machine fields select %+v; want the 4-core Table 2 machine", hw)
		}
	}
	// Ops 0 runs 1000 operations per core.
	cfg, _, err := parse(crashtestBase(), All, "-ops 0 -scale 256 -initial 100")
	if err != nil {
		t.Fatal(err)
	}
	s, err := pmemaccel.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Ops != 1000 {
		t.Errorf("-ops 0 resolves to %d ops per core, want 1000", s.Config.Ops)
	}
}

// TestBindDefaultsAreTheBase: -h shows the base Config's values, and
// a command line without a bound flag leaves the base as it was.
func TestBindDefaultsAreTheBase(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := crashtestBase()
	Bind(fs, &cfg, All)
	for name, want := range map[string]string{
		"bench": "rbtree", "mech": "tcache", "ops": "800", "initial": "2000",
		"scale": "128", "cores": "0", "seed": "1", "no-ff": "false",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	got, bound, err := parse(crashtestBase(), crashtestFlags, "-trials 3 -v")
	if err != nil || !reflect.DeepEqual(got, crashtestBase()) || bound.PaperScale {
		t.Errorf("own flags only: %+v, %+v, %v; want the base unchanged", got, bound, err)
	}
	if _, bound, err := parse(pmemsimBase(), All, "-paper-scale"); err != nil || !bound.PaperScale {
		t.Errorf("-paper-scale: %+v, %v", bound, err)
	}
	// An unselected flag is not defined.
	if _, _, err := parse(crashtestBase(), crashtestFlags, "-no-ff"); err == nil {
		t.Error("crashtest's flag set accepted -no-ff")
	}
}
