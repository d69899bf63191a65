// Package cliflags defines the command-line flags that set a
// pmemaccel.Config, once for every command: one name, one help text and
// one meaning per flag. A command passes its base Config and the flags
// that apply to it; the base values are the defaults -h shows.
//
// A flag writes straight into its Config field, so an explicit value,
// 0 included, means what that field documents, the same in every
// command: -ops 0 runs 1000 operations and -scale 0 builds the full
// Table 2 machine.
//
// Parsing a value checks the whole Config it leaves: -cores must be a
// power of two up to 64, and Config.Validate must accept the result.
// A bad value therefore fails the FlagSet's Parse with one error that
// names the flag, before the command starts a run.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"

	"pmemaccel"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/workload"
)

// Flag selects flags for Bind; combine them with |.
type Flag uint

// The flags Bind defines, each named by what it sets.
const (
	Bench          Flag = 1 << iota // -bench: Config.Benchmark
	Mech                            // -mech: Config.Mechanism
	Ops                             // -ops: Config.Ops
	Initial                         // -initial: Config.InitialSize
	Seed                            // -seed: Config.Seed
	Contention                      // -contention: Config.ContentionPct
	SharedAccounts                  // -shared-accounts: Config.SharedAccounts
	Scale                           // -scale: Config.Scale
	Cores                           // -cores: Config.Cores
	TC                              // -tc: Config.TCBytes
	NVMChannels                     // -nvm-channels: Config.NVMChannels
	DRAMChannels                    // -dram-channels: Config.DRAMChannels
	Interleave                      // -interleave: Config.ChannelInterleaveBytes
	Metrics                         // -metrics: Config.Obs.Metrics
	TxSample                        // -tx-sample: Config.Obs.TxSample
	NoFF                            // -no-ff: Config.NoFastForward
	PaperScale                      // -paper-scale: Flags.PaperScale

	// Workload sizes and seeds the benchmark.
	Workload = Ops | Initial | Seed | Contention | SharedAccounts
	// Machine shapes the simulated machine.
	Machine = Scale | Cores | TC | NVMChannels | DRAMChannels | Interleave
	// All is every flag.
	All = Bench | Mech | Workload | Machine | Metrics | TxSample | NoFF | PaperScale
)

// Flags holds what the bound flags select beyond the Config.
type Flags struct {
	// PaperScale is -paper-scale: the command resizes each run with
	// Config.PaperScale before running it.
	PaperScale bool
}

// Bind defines the flags in which on fs, writing into *cfg, which must
// be valid.
func Bind(fs *flag.FlagSet, cfg *pmemaccel.Config, which Flag) *Flags {
	b := binder{fs, cfg, which}
	out := &Flags{}
	bind(b, Bench, "bench", &cfg.Benchmark, workload.ParseBenchmark,
		fmt.Sprintf("benchmark, one of %v", workload.Extended))
	bind(b, Mech, "mech", &cfg.Mechanism, mechanism.ParseKind,
		fmt.Sprintf("persistence mechanism, one of %v", mechanism.All))
	bind(b, Ops, "ops", &cfg.Ops, parseInt,
		"measured operations (transactions) per core (0 selects 1000)")
	bind(b, Initial, "initial", &cfg.InitialSize, parseInt,
		"prepopulated elements per core (0 sizes the working set to twice the core's LLC share)")
	bind(b, Seed, "seed", &cfg.Seed, parseUint, "random seed")
	bind(b, Contention, "contention", &cfg.ContentionPct, parseFloat,
		"shared-op fraction for -bench bankshared, in [0, 1] (0 selects the workload default 0.5)")
	bind(b, SharedAccounts, "shared-accounts", &cfg.SharedAccounts, parseInt,
		"shared array length in words for -bench bankshared (0 selects 64)")
	bind(b, Scale, "scale", &cfg.Scale, parseInt,
		"cache scale divisor, a power of two (0 and 1 select the full Table 2 machine)")
	bind(b, Cores, "cores", &cfg.Cores, parseCores,
		"core count, a power of two up to 64 (0 selects 4)")
	bind(b, TC, "tc", &cfg.TCBytes, parseInt,
		"transaction cache bytes per core, a multiple of 64 (0 selects 4096); a small TC sends transactions down the copy-on-write fall-back")
	bind(b, NVMChannels, "nvm-channels", &cfg.NVMChannels, parseInt,
		"address-interleaved NVM channels (0 selects 1)")
	bind(b, DRAMChannels, "dram-channels", &cfg.DRAMChannels, parseInt,
		"address-interleaved DRAM channels (0 selects 1)")
	bind(b, Interleave, "interleave", &cfg.ChannelInterleaveBytes, parseInt,
		"channel interleave granularity in bytes, a power of two of at least 64 (0 selects 4096)")
	bind(b, Metrics, "metrics", &cfg.Obs.Metrics, strconv.ParseBool,
		"enable the run-wide metrics registry and print its latency-percentile tables")
	bind(b, TxSample, "tx-sample", &cfg.Obs.TxSample, parseUint,
		"flight-record every Nth transaction per core and print the stage breakdown (1 = all, 0 = off)")
	bind(b, NoFF, "no-ff", &cfg.NoFastForward, strconv.ParseBool,
		"disable component sleep and fast-forward (tick everything every cycle; same results, slower)")
	bind(b, PaperScale, "paper-scale", &out.PaperScale, strconv.ParseBool,
		"size ops to the paper's 1.7G-instruction window (slow)")
	return out
}

// binder is what bind needs of a Bind call.
type binder struct {
	fs    *flag.FlagSet
	cfg   *pmemaccel.Config
	which Flag
}

// bind defines flag f as name when b selects it.
func bind[T any](b binder, f Flag, name string, p *T, parse func(string) (T, error), usage string) {
	if b.which&f != 0 {
		b.fs.Var(&field[T]{p, parse, b.cfg}, name, usage)
	}
}

// field is the flag.Value of one bound flag: Set writes the parsed
// value to p and then validates cfg, which holds p.
type field[T any] struct {
	p     *T
	parse func(string) (T, error)
	cfg   *pmemaccel.Config
}

func (f *field[T]) Set(s string) error {
	v, err := f.parse(s)
	if err != nil {
		return err
	}
	*f.p = v
	return f.cfg.Validate()
}

// String prints the value; the flag package calls it on a zero field to
// find the default that -h leaves unsaid.
func (f *field[T]) String() string {
	if f.p == nil {
		var zero T
		return fmt.Sprint(zero)
	}
	return fmt.Sprint(*f.p)
}

// IsBoolFlag lets a bool flag stand without a value (-no-ff).
func (f *field[T]) IsBoolFlag() bool {
	_, ok := any(f.p).(*bool)
	return ok
}

func parseInt(s string) (int, error) {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	return int(n), err
}

func parseUint(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseCores parses -cores and applies the command-line core policy.
func parseCores(s string) (int, error) {
	n, err := parseInt(s)
	if err == nil {
		err = checkCores(n)
	}
	return n, err
}

// checkCores is stricter than Config.Validate: beyond the range it
// requires a power of two, so -cores always composes with the
// power-of-two channel interleave and matches the machine widths the
// figures pin. The library accepts any count in [1, memaddr.MaxCores];
// unit tests use odd widths on purpose. 0 selects the default.
func checkCores(n int) error {
	if n == 0 {
		return nil
	}
	if n < 0 || n > memaddr.MaxCores {
		return fmt.Errorf("cores %d must be in [1, %d] (0 selects the default %d)", n, memaddr.MaxCores, pmemaccel.DefaultCores)
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("cores %d must be a power of two (channel interleave and figure grids assume it)", n)
	}
	return nil
}
