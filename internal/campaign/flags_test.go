package campaign

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestSpecFlagsPrecedence is table-driven over the shared flag surface:
// a flag the command line sets overrides the tool's base Spec — even
// when it repeats the base value — and a flag it leaves alone does not.
func TestSpecFlagsPrecedence(t *testing.T) {
	base := DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 0

	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = success
		check   func(t *testing.T, s Spec, f *SpecFlags)
	}{
		{
			name: "base defaults stand",
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Scale != "small" || s.Traces != 2 || s.Seed != 2015 ||
					s.Scenario != ScenarioUncongested || s.Stride != 0 {
					t.Fatalf("spec = %+v", s)
				}
				if f.Set("traces") {
					t.Fatal("Set(traces) with no -traces on the command line")
				}
			},
		},
		{
			name: "flags override base",
			args: []string{"-scenario", "congested-transit", "-traces", "7",
				"-slices", "2", "-workers", "9", "-seed", "-1"},
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Scenario != "congested-transit" || s.Traces != 7 ||
					s.SlicesPerVantage != 2 || s.Workers != 9 || s.Seed != -1 {
					t.Fatalf("spec = %+v", s)
				}
				if !f.Set("scenario") || f.Set("stride") {
					t.Fatalf("Set: scenario=%v stride=%v", f.Set("scenario"), f.Set("stride"))
				}
			},
		},
		{
			name: "flag repeating the base value still counts as set",
			args: []string{"-traces", "2"},
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Traces != 2 || !f.Set("traces") {
					t.Fatalf("traces=%d set=%v", s.Traces, f.Set("traces"))
				}
			},
		},
		{
			name:    "list value rejected by single-valued tool",
			args:    []string{"-workers", "1,4,13"},
			wantErr: "single value",
		},
		{
			name:    "bad flag scenario caught by validation",
			args:    []string{"-scenario", "congested"},
			wantErr: "scenario",
		},
		{
			name:    "bad flag scale caught by validation",
			args:    []string{"-scale", "medium"},
			wantErr: "scale",
		},
		{
			name:    "negative flag traces caught by validation",
			args:    []string{"-traces", "-2"},
			wantErr: "traces",
		},
		{
			name:    "negative flag stride caught by validation",
			args:    []string{"-stride", "-1"},
			wantErr: "stride",
		},
		{
			name:    "negative flag workers rejected",
			args:    []string{"-workers", "-2"},
			wantErr: "workers",
		},
		{
			name:    "garbage flag workers rejected",
			args:    []string{"-workers", "all"},
			wantErr: "workers",
		},
		{
			name:    "negative flag slices rejected",
			args:    []string{"-slices", "-1"},
			wantErr: "slices",
		},
		{
			name:    "garbage flag slices rejected",
			args:    []string{"-slices", "many"},
			wantErr: "slices",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := BindSpecFlags(fs, FlagOptions{Base: base})
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			s, err := f.Resolve()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error mentioning %q, got spec %+v", tc.wantErr, s)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, s, f)
		})
	}
}

// TestFromEnv resolves a campaign the way a tool does from its process
// environment, with every former REPRO_* campaign variable set to a
// value that would change or break the campaign: the command line over
// the base Spec is the whole configuration surface, so the defaults
// arrive untouched and a bad flag is refused whatever the environment
// holds.
func TestFromEnv(t *testing.T) {
	stale := map[string]string{"REPRO_SCALE": "small", "REPRO_SCENARIO": "congested-edge",
		"REPRO_TRACES": "4", "REPRO_STRIDE": "5", "REPRO_SEED": "-99",
		"REPRO_WORKERS": "3", "REPRO_SLICES": "4"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty = success expected
	}{
		{name: "defaults"},
		{name: "bad scenario", args: []string{"-scenario", "congested"}, wantErr: "scenario"},
		{name: "workers negative", args: []string{"-workers", "-4"}, wantErr: "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k, v := range stale {
				t.Setenv(k, v)
			}
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := BindSpecFlags(fs, FlagOptions{Base: DefaultSpec()})
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			s, err := f.Resolve()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error mentioning %q, got spec %+v", tc.wantErr, s)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.Config()
			if err != nil {
				t.Fatal(err)
			}
			// The canonical Spec derives the Config, so defaults arrive
			// explicit rather than as zero values.
			if cfg.Scale != "paper" || cfg.Scenario != ScenarioUncongested ||
				cfg.Traces != 6 || cfg.Stride != 3 || cfg.Seed != 2015 ||
				cfg.Workers != 0 || cfg.SlicesPerVantage != 1 ||
				cfg.Scheduler != netsim.SchedWheel || cfg.XTraffic != netsim.XTrafficLazy {
				t.Fatalf("defaults = %+v", cfg)
			}
		})
	}
}

// TestSpecFlagsGrid covers cmd/determinism's list-valued mode: default
// axes sweep the GridDefaults, flags narrow or widen an axis, and a
// malformed or empty axis list is an error.
func TestSpecFlagsGrid(t *testing.T) {
	grid := &GridDefaults{
		Scenarios: Scenarios(),
		Workers:   []int{1, 4, 13},
		Slices:    []int{1, 2, 8},
	}
	base := DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 0

	bind := func(t *testing.T, args []string) *SpecFlags {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := BindSpecFlags(fs, FlagOptions{Base: base, Grid: grid})
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}

	t.Run("default grid is the full cross product", func(t *testing.T) {
		cells, err := bind(t, nil).ResolveGrid()
		if err != nil {
			t.Fatal(err)
		}
		want := 3 * 3 * 3
		if len(cells) != want {
			t.Fatalf("grid = %d cells, want %d", len(cells), want)
		}
		// Canonical nesting: scenario outermost, workers innermost.
		if cells[0].Workers != 1 || cells[1].Workers != 4 || cells[2].Workers != 13 {
			t.Fatalf("workers not innermost: %d,%d,%d",
				cells[0].Workers, cells[1].Workers, cells[2].Workers)
		}
		if cells[0].Scenario != cells[len(cells)/3-1].Scenario {
			t.Fatal("scenario not outermost")
		}
	})

	t.Run("flag narrows an axis", func(t *testing.T) {
		cells, err := bind(t, []string{"-scenario", "uncongested", "-workers", "1,2"}).ResolveGrid()
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 * 3 * 2; len(cells) != want {
			t.Fatalf("grid = %d cells, want %d", len(cells), want)
		}
		for _, c := range cells {
			if c.Scenario != ScenarioUncongested {
				t.Fatalf("cell scenario = %q", c.Scenario)
			}
		}
	})

	t.Run("invalid axis value rejected", func(t *testing.T) {
		if _, err := bind(t, []string{"-scenario", "uncongested,congested"}).ResolveGrid(); err == nil {
			t.Fatal("want error for unknown scenario in the grid")
		}
		if _, err := bind(t, []string{"-workers", "1,zero"}).ResolveGrid(); err == nil {
			t.Fatal("want error for malformed worker count")
		}
		for _, axis := range []string{"-scenario", "-workers", "-slices"} {
			if _, err := bind(t, []string{axis, ","}).ResolveGrid(); err == nil || !strings.Contains(err.Error(), "need at least one") {
				t.Fatalf("%s ,: err = %v, want an empty axis refused", axis, err)
			}
		}
	})
}
