package campaign

import (
	"flag"
	"strings"
	"testing"
)

// allReproKnobs clears every REPRO_* variable a test doesn't set, so
// the ambient environment cannot leak into precedence cases.
var allReproKnobs = []string{"REPRO_SCALE", "REPRO_SCENARIO", "REPRO_TRACES",
	"REPRO_STRIDE", "REPRO_SEED", "REPRO_WORKERS", "REPRO_SLICES"}

func setEnv(t *testing.T, env map[string]string) {
	t.Helper()
	for _, k := range allReproKnobs {
		t.Setenv(k, env[k]) // unset knobs become ""
	}
}

// TestSpecFlagsPrecedence is table-driven over the shared flag surface:
// explicit flags override REPRO_* environment values, which override
// the tool's base Spec — and a malformed environment value is an error
// even when a flag overrides the same knob.
func TestSpecFlagsPrecedence(t *testing.T) {
	base := DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 0

	cases := []struct {
		name    string
		env     map[string]string
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
				if f.Source("traces") != SourceDefault {
					t.Fatalf("Source(traces) = %v", f.Source("traces"))
				}
			},
		},
		{
			name: "env overrides base",
			env: map[string]string{"REPRO_SCENARIO": "congested-edge",
				"REPRO_TRACES": "5", "REPRO_WORKERS": "3"},
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Scenario != "congested-edge" || s.Traces != 5 || s.Workers != 3 {
					t.Fatalf("spec = %+v", s)
				}
				if f.Source("traces") != SourceEnv {
					t.Fatalf("Source(traces) = %v", f.Source("traces"))
				}
			},
		},
		{
			name: "flags override env",
			env: map[string]string{"REPRO_SCENARIO": "congested-edge",
				"REPRO_TRACES": "5", "REPRO_SLICES": "4"},
			args: []string{"-scenario", "congested-transit", "-traces", "7",
				"-slices", "2", "-workers", "9", "-seed", "-1"},
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Scenario != "congested-transit" || s.Traces != 7 ||
					s.SlicesPerVantage != 2 || s.Workers != 9 || s.Seed != -1 {
					t.Fatalf("spec = %+v", s)
				}
				if f.Source("scenario") != SourceFlag || f.Source("stride") != SourceDefault {
					t.Fatalf("sources: scenario=%v stride=%v", f.Source("scenario"), f.Source("stride"))
				}
			},
		},
		{
			name: "flag repeating the env value still counts as flag",
			env:  map[string]string{"REPRO_WORKERS": "4"},
			args: []string{"-workers", "4"},
			check: func(t *testing.T, s Spec, f *SpecFlags) {
				if s.Workers != 4 || f.Source("workers") != SourceFlag {
					t.Fatalf("workers=%d source=%v", s.Workers, f.Source("workers"))
				}
			},
		},
		{
			name:    "malformed env is an error even when the flag overrides it",
			env:     map[string]string{"REPRO_TRACES": "1O"},
			args:    []string{"-traces", "7"},
			wantErr: "REPRO_TRACES",
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
			name:    "negative flag workers rejected",
			args:    []string{"-workers", "-2"},
			wantErr: "workers",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setEnv(t, tc.env)
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

// TestSpecFlagsGrid covers cmd/determinism's list-valued mode: default
// axes sweep the GridDefaults, flags narrow or widen an axis, and a
// REPRO_* variable narrows its axis to one value.
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
		setEnv(t, nil)
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
		setEnv(t, nil)
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

	t.Run("env narrows an axis to one value", func(t *testing.T) {
		setEnv(t, map[string]string{"REPRO_SLICES": "2"})
		cells, err := bind(t, nil).ResolveGrid()
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 * 1 * 3; len(cells) != want {
			t.Fatalf("grid = %d cells, want %d", len(cells), want)
		}
		for _, c := range cells {
			if c.SlicesPerVantage != 2 {
				t.Fatalf("cell slices = %d", c.SlicesPerVantage)
			}
		}
	})

	t.Run("invalid axis value rejected", func(t *testing.T) {
		setEnv(t, nil)
		if _, err := bind(t, []string{"-scenario", "uncongested,congested"}).ResolveGrid(); err == nil {
			t.Fatal("want error for unknown scenario in the grid")
		}
		if _, err := bind(t, []string{"-workers", "1,zero"}).ResolveGrid(); err == nil {
			t.Fatal("want error for malformed worker count")
		}
	})
}
