package campaign

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// This file is the one flag surface shared by every campaign-driving
// command (ecnspider, determinism). Each tool used to register and
// interpret its own -scenario/-workers/-slices flags; consolidating
// them here makes the vocabulary, defaults and precedence identical
// everywhere:
//
//	explicit flags  >  REPRO_* environment  >  the tool's base Spec
//
// Malformed environment values are always an error, even when a flag
// overrides the same knob — a typo'd REPRO_* must never be silently
// masked.

// FlagSource says where a resolved knob's value came from.
type FlagSource int

const (
	// SourceDefault: neither flag nor environment set the knob; the
	// tool's base Spec value stands.
	SourceDefault FlagSource = iota
	// SourceEnv: the knob's REPRO_* environment variable set it.
	SourceEnv
	// SourceFlag: the knob's command-line flag set it (highest
	// precedence).
	SourceFlag
)

// envVarFor maps a flag name to its REPRO_* environment variable; knobs
// without one (e.g. -discover) return "".
var envVarFor = map[string]string{
	"seed":     "REPRO_SEED",
	"scale":    "REPRO_SCALE",
	"scenario": "REPRO_SCENARIO",
	"traces":   "REPRO_TRACES",
	"stride":   "REPRO_STRIDE",
	"workers":  "REPRO_WORKERS",
	"slices":   "REPRO_SLICES",
}

// GridDefaults are the axis values a grid-mode tool (cmd/determinism)
// sweeps when neither flag nor environment narrows an axis.
type GridDefaults struct {
	Scenarios []string
	Workers   []int
	Slices    []int
}

// FlagOptions configures BindSpecFlags for one tool.
type FlagOptions struct {
	// Base is the tool's default campaign (lowest precedence layer).
	Base Spec
	// Grid, when non-nil, registers -scenario/-workers/-slices as
	// comma-separated list flags sweeping a grid (ResolveGrid) instead
	// of single values (Resolve).
	Grid *GridDefaults
}

// SpecFlags binds the shared campaign knobs onto a FlagSet and resolves
// them — after Parse — into a Spec (or a grid of Specs) with the
// flags-over-env-over-base precedence.
type SpecFlags struct {
	fs   *flag.FlagSet
	base Spec
	grid *GridDefaults

	seed     int64
	scale    string
	scenario string
	traces   int
	stride   int
	discover bool
	workers  string
	slices   string
}

// BindSpecFlags registers the shared campaign flags on fs. Call one of
// Resolve/ResolveGrid after fs.Parse.
func BindSpecFlags(fs *flag.FlagSet, opts FlagOptions) *SpecFlags {
	f := &SpecFlags{fs: fs, base: opts.Base, grid: opts.Grid}
	b := f.base
	fs.Int64Var(&f.seed, "seed", b.Seed, "campaign seed (same seed → identical dataset; env REPRO_SEED)")
	fs.StringVar(&f.scale, "scale", b.Scale, "world scale: paper (2500 servers) or small (120; env REPRO_SCALE)")
	fs.IntVar(&f.traces, "traces", b.Traces, "traces per vantage; 0 = the paper 210-trace plan (env REPRO_TRACES)")
	fs.IntVar(&f.stride, "stride", b.Stride, "traceroute sampling: every Nth server, 0 disables (env REPRO_STRIDE)")
	fs.BoolVar(&f.discover, "discover", b.Discover, "enumerate servers via pool DNS before probing")
	if f.grid != nil {
		fs.StringVar(&f.scenario, "scenario", strings.Join(f.grid.Scenarios, ","),
			"comma-separated congestion scenarios (env REPRO_SCENARIO narrows to one)")
		fs.StringVar(&f.workers, "workers", joinInts(f.grid.Workers),
			"comma-separated parallel shard worker counts (env REPRO_WORKERS)")
		fs.StringVar(&f.slices, "slices", joinInts(f.grid.Slices),
			"comma-separated sub-vantage slice counts (env REPRO_SLICES)")
	} else {
		fs.StringVar(&f.scenario, "scenario", b.Scenario,
			"congestion scenario: "+strings.Join(Scenarios(), ", ")+" (env REPRO_SCENARIO)")
		fs.StringVar(&f.workers, "workers", strconv.Itoa(b.Workers), "parallel shard workers, 0 = GOMAXPROCS (env REPRO_WORKERS)")
		fs.StringVar(&f.slices, "slices", strconv.Itoa(b.SlicesPerVantage), "sub-vantage slices per vantage (env REPRO_SLICES)")
	}
	return f
}

func joinInts(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// visited reports which flags the command line explicitly set.
func (f *SpecFlags) visited() map[string]bool {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	return set
}

// Source reports where the named knob's resolved value came from:
// flag, environment, or the tool's base default.
func (f *SpecFlags) Source(name string) FlagSource {
	if f.visited()[name] {
		return SourceFlag
	}
	if env := envVarFor[name]; env != "" && os.Getenv(env) != "" {
		return SourceEnv
	}
	return SourceDefault
}

// Resolve layers the environment and the explicitly-set flags over the
// base Spec and validates the result. List values in single-valued
// tools are an error.
func (f *SpecFlags) Resolve() (Spec, error) {
	s := f.base
	if err := s.applyEnv(os.Getenv); err != nil {
		return Spec{}, err
	}
	set := f.visited()
	if set["seed"] {
		s.Seed = f.seed
	}
	if set["scale"] {
		s.Scale = f.scale
	}
	if set["scenario"] {
		s.Scenario = f.scenario
	}
	if set["traces"] {
		s.Traces = f.traces
	}
	if set["stride"] {
		s.Stride = f.stride
	}
	if set["discover"] {
		s.Discover = f.discover
	}
	var err error
	if set["workers"] {
		if s.Workers, err = singleCount("workers", f.workers); err != nil {
			return Spec{}, err
		}
	}
	if set["slices"] {
		if s.SlicesPerVantage, err = singleCount("slices", f.slices); err != nil {
			return Spec{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func singleCount(name, v string) (int, error) {
	if strings.Contains(v, ",") {
		return 0, fmt.Errorf("flag -%s=%q: this command takes a single value, not a list", name, v)
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("flag -%s=%q: want a non-negative integer", name, v)
	}
	return n, nil
}

// ResolveGrid resolves the base knobs like Resolve, then expands the
// grid axes — scenarios × slices × workers, scenario outermost — into
// one Spec per cell. Axis values come from the flag list when set, else
// the knob's REPRO_* variable (narrowing the axis to one value), else
// the tool's GridDefaults. Every cell is validated.
func (f *SpecFlags) ResolveGrid() ([]Spec, error) {
	if f.grid == nil {
		return nil, fmt.Errorf("campaign: ResolveGrid on a single-valued flag set")
	}
	base := f.base
	if err := base.applyEnv(os.Getenv); err != nil {
		return nil, err
	}
	set := f.visited()
	if set["seed"] {
		base.Seed = f.seed
	}
	if set["scale"] {
		base.Scale = f.scale
	}
	if set["traces"] {
		base.Traces = f.traces
	}
	if set["stride"] {
		base.Stride = f.stride
	}
	if set["discover"] {
		base.Discover = f.discover
	}

	scenarios := f.grid.Scenarios
	switch {
	case set["scenario"]:
		scenarios = splitList(f.scenario)
	case os.Getenv("REPRO_SCENARIO") != "":
		scenarios = []string{base.Scenario}
	}

	intAxis := func(name, flagVal string, envSet bool, envVal int, def []int) ([]int, error) {
		if set[name] {
			var ns []int
			for _, part := range splitList(flagVal) {
				n, err := strconv.Atoi(part)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("flag -%s: bad count %q", name, part)
				}
				ns = append(ns, n)
			}
			if len(ns) == 0 {
				return nil, fmt.Errorf("flag -%s: need at least one count", name)
			}
			return ns, nil
		}
		if envSet {
			return []int{envVal}, nil
		}
		return def, nil
	}
	workerCounts, err := intAxis("workers", f.workers, os.Getenv("REPRO_WORKERS") != "", base.Workers, f.grid.Workers)
	if err != nil {
		return nil, err
	}
	sliceCounts, err := intAxis("slices", f.slices, os.Getenv("REPRO_SLICES") != "", base.SlicesPerVantage, f.grid.Slices)
	if err != nil {
		return nil, err
	}

	var cells []Spec
	for _, scenario := range scenarios {
		for _, sl := range sliceCounts {
			for _, w := range workerCounts {
				s := base
				s.Scenario = scenario
				s.SlicesPerVantage = sl
				s.Workers = w
				if err := s.Validate(); err != nil {
					return nil, err
				}
				cells = append(cells, s)
			}
		}
	}
	return cells, nil
}

func splitList(v string) []string {
	var out []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
