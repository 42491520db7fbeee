package campaign

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// This file is the one flag surface shared by every campaign-driving
// command (ecnspider, determinism): the same vocabulary and defaults
// everywhere, and one rule — a flag the command line sets overrides the
// tool's base Spec, a flag it leaves alone does not.

// GridDefaults are the axis values a grid-mode tool (cmd/determinism)
// sweeps when no flag narrows an axis.
type GridDefaults struct {
	Scenarios []string
	Workers   []int
	Slices    []int
}

// FlagOptions configures BindSpecFlags for one tool.
type FlagOptions struct {
	// Base is the tool's default campaign.
	Base Spec
	// Grid, when non-nil, registers -scenario/-workers/-slices as
	// comma-separated list flags sweeping a grid (ResolveGrid) instead
	// of single values (Resolve).
	Grid *GridDefaults
}

// SpecFlags binds the shared campaign knobs onto a FlagSet and resolves
// them — after Parse — into a Spec (or a grid of Specs): the set flags
// over the base.
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
	fs.Int64Var(&f.seed, "seed", b.Seed, "campaign seed (same seed → identical dataset)")
	fs.StringVar(&f.scale, "scale", b.Scale, "world scale: paper (2500 servers) or small (120)")
	fs.IntVar(&f.traces, "traces", b.Traces, "traces per vantage; 0 = the paper 210-trace plan")
	fs.IntVar(&f.stride, "stride", b.Stride, "traceroute sampling: every Nth server, 0 disables")
	fs.BoolVar(&f.discover, "discover", b.Discover, "enumerate servers via pool DNS before probing")
	if f.grid != nil {
		fs.StringVar(&f.scenario, "scenario", strings.Join(f.grid.Scenarios, ","),
			"comma-separated congestion scenarios")
		fs.StringVar(&f.workers, "workers", joinInts(f.grid.Workers),
			"comma-separated parallel shard worker counts")
		fs.StringVar(&f.slices, "slices", joinInts(f.grid.Slices),
			"comma-separated sub-vantage slice counts")
	} else {
		fs.StringVar(&f.scenario, "scenario", b.Scenario,
			"congestion scenario: "+strings.Join(Scenarios(), ", "))
		fs.StringVar(&f.workers, "workers", strconv.Itoa(b.Workers), "parallel shard workers, 0 = GOMAXPROCS")
		fs.StringVar(&f.slices, "slices", strconv.Itoa(b.SlicesPerVantage), "sub-vantage slices per vantage")
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

// Set reports whether the command line set the named flag — even to
// the base value.
func (f *SpecFlags) Set(name string) bool {
	set := false
	f.fs.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// overBase returns the base Spec with the set scalar knobs laid over
// it; the -scenario/-workers/-slices axes are the callers' to resolve.
func (f *SpecFlags) overBase() Spec {
	s := f.base
	if f.Set("seed") {
		s.Seed = f.seed
	}
	if f.Set("scale") {
		s.Scale = f.scale
	}
	if f.Set("traces") {
		s.Traces = f.traces
	}
	if f.Set("stride") {
		s.Stride = f.stride
	}
	if f.Set("discover") {
		s.Discover = f.discover
	}
	return s
}

// Resolve lays the set flags over the base Spec and validates the
// result. List values in single-valued tools are an error.
func (f *SpecFlags) Resolve() (Spec, error) {
	s := f.overBase()
	if f.Set("scenario") {
		s.Scenario = f.scenario
	}
	var err error
	if f.Set("workers") {
		if s.Workers, err = singleCount("workers", f.workers); err != nil {
			return Spec{}, err
		}
	}
	if f.Set("slices") {
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

// ResolveGrid resolves the scalar knobs like Resolve, then expands the
// grid axes — scenarios × slices × workers, scenario outermost — into
// one Spec per cell. An axis is its flag's list when set, else the
// tool's GridDefaults; a set flag with no value in its list is an
// error. Every cell is validated.
func (f *SpecFlags) ResolveGrid() ([]Spec, error) {
	if f.grid == nil {
		return nil, fmt.Errorf("campaign: ResolveGrid on a single-valued flag set")
	}
	base := f.overBase()

	scenarios := f.grid.Scenarios
	if f.Set("scenario") {
		if scenarios = splitList(f.scenario); len(scenarios) == 0 {
			return nil, fmt.Errorf("flag -scenario: need at least one scenario")
		}
	}
	intAxis := func(name, flagVal string, def []int) ([]int, error) {
		if !f.Set(name) {
			return def, nil
		}
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
	workerCounts, err := intAxis("workers", f.workers, f.grid.Workers)
	if err != nil {
		return nil, err
	}
	sliceCounts, err := intAxis("slices", f.slices, f.grid.Slices)
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
