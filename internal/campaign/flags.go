package campaign

import (
	"flag"
	"strings"
)

// This file is the flag surface of a campaign-driving command
// (ecnspider): one vocabulary and one rule — a flag the command line
// sets overrides the tool's base Spec, a flag it leaves alone does not.

// SpecFlags binds the campaign knobs onto a FlagSet and resolves them —
// after Parse — into a Spec: the set flags over the base.
type SpecFlags struct {
	fs   *flag.FlagSet
	base Spec

	seed     int64
	scale    string
	scenario string
	traces   int
	stride   int
	discover bool
	workers  int
	slices   int
}

// BindSpecFlags registers the campaign flags on fs, defaulting to base.
// Call Resolve after fs.Parse.
func BindSpecFlags(fs *flag.FlagSet, base Spec) *SpecFlags {
	f := &SpecFlags{fs: fs, base: base}
	fs.Int64Var(&f.seed, "seed", base.Seed, "campaign seed (same seed → identical dataset)")
	fs.StringVar(&f.scale, "scale", base.Scale, "world scale: paper (2500 servers) or small (120)")
	fs.StringVar(&f.scenario, "scenario", base.Scenario,
		"congestion scenario: "+strings.Join(Scenarios(), ", "))
	fs.IntVar(&f.traces, "traces", base.Traces, "traces per vantage; 0 = the paper 210-trace plan")
	fs.IntVar(&f.stride, "stride", base.Stride, "traceroute sampling: every Nth server, 0 disables")
	fs.BoolVar(&f.discover, "discover", base.Discover, "enumerate servers via pool DNS before probing")
	fs.IntVar(&f.workers, "workers", base.Workers, "parallel shard workers, 0 = GOMAXPROCS")
	fs.IntVar(&f.slices, "slices", base.SlicesPerVantage, "sub-vantage slices per vantage")
	return f
}

// Set reports whether the command line set the named flag — even to
// the base value.
func (f *SpecFlags) Set(name string) bool {
	set := false
	f.fs.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// Resolve lays the set flags over the base Spec and validates the
// result.
func (f *SpecFlags) Resolve() (Spec, error) {
	s := f.base
	if f.Set("seed") {
		s.Seed = f.seed
	}
	if f.Set("scale") {
		s.Scale = f.scale
	}
	if f.Set("scenario") {
		s.Scenario = f.scenario
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
	if f.Set("workers") {
		s.Workers = f.workers
	}
	if f.Set("slices") {
		s.SlicesPerVantage = f.slices
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
