package main

// End to end: this test binary re-executed as ecnspider (TestMain), run
// the way README.md runs it. Each row's dataset must hash to its
// scenario's row of the golden table (goldentest), whatever the
// execution shape.
//
//	go test -v ./cmd/ecnspider

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/goldentest"
	"repro/internal/capture"
)

// childEnv marks a re-executed test binary as the ecnspider command.
const childEnv = "ECNSPIDER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDataset: the small, 2-trace, seed-2015 datasets hash to their
// scenario's row of the golden table (goldentest).
func TestDataset(t *testing.T) {
	uncongested := goldentest.Small(t, campaign.ScenarioUncongested).Dataset
	for _, row := range []struct {
		name   string
		args   []string
		want   string
		stderr string // a line the run must log
	}{
		{"default", nil, uncongested, "dataset written to"},
		{"sharded", []string{"-workers", "1", "-slices", "8"}, uncongested, "in 26 shards"},
		{"congested-edge", []string{"-scenario", "congested-edge"},
			goldentest.Small(t, campaign.ScenarioCongestedEdge).Dataset, "aggregate"},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(t.TempDir(), "dataset.jsonl")
			stderr := ecnspider(t, append(row.args, "-o", out)...)
			if got := sha(readFile(t, out)); got != row.want {
				t.Fatalf("dataset hash %s, want %s", got, row.want)
			}
			if !strings.Contains(stderr, row.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", row.stderr, stderr)
			}
		})
	}
}

// TestPcap: -pcap writes the first shard's vantage traffic as a pcap
// that capture.ReadPcap reads back, and leaves the dataset unchanged.
func TestPcap(t *testing.T) {
	dir := t.TempDir()
	out, pcap := filepath.Join(dir, "dataset.jsonl"), filepath.Join(dir, "vantage.pcap")
	ecnspider(t, "-o", out, "-pcap", pcap)
	if got, want := sha(readFile(t, out)), goldentest.Small(t, campaign.ScenarioUncongested).Dataset; got != want {
		t.Fatalf("dataset hash under -pcap %s, want %s", got, want)
	}
	records, err := capture.ReadPcap(bytes.NewReader(readFile(t, pcap)))
	if err != nil || len(records) == 0 {
		t.Fatalf("pcap holds %d records, %v; want > 0", len(records), err)
	}
}

// TestPaperScaleMeansPaperPlan: at -scale paper an untouched -traces
// is the paper's 210-trace plan; an explicit -traces 2, though it
// repeats the small world's default, is 2 traces a vantage.
func TestPaperScaleMeansPaperPlan(t *testing.T) {
	for _, row := range []struct {
		args   []string
		traces int
	}{
		{[]string{"-scale", "paper"}, 210},
		{[]string{"-scale", "paper", "-traces", "2"}, 13 * 2},
		{nil, 13 * 2},
	} {
		fs := flag.NewFlagSet("ecnspider", flag.ContinueOnError)
		spec := bindSpec(fs)
		if err := fs.Parse(row.args); err != nil {
			t.Fatal(err)
		}
		s, err := resolveSpec(fs, spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, sh := range cfg.Shards() {
			total += sh.Traces
		}
		if total != row.traces {
			t.Errorf("ecnspider %s plans %d traces, want %d", strings.Join(row.args, " "), total, row.traces)
		}
	}
}

// parseSpec parses args onto a fresh ecnspider flag set and resolves
// the campaign spec.
func parseSpec(args ...string) (campaign.Spec, error) {
	fs := flag.NewFlagSet("ecnspider", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := bindSpec(fs)
	if err := fs.Parse(args); err != nil {
		return campaign.Spec{}, err
	}
	return resolveSpec(fs, spec)
}

// TestSpecFlagsPrecedence is table-driven over the campaign flags: a
// flag the command line sets overrides ecnspider's base spec — even when
// it repeats the base value — a flag it leaves alone does not, and a
// bad value is refused by the flag parser or by spec validation.
func TestSpecFlagsPrecedence(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = success
		check   func(s campaign.Spec) bool
	}{
		{name: "base defaults stand", check: func(s campaign.Spec) bool {
			return s.Scale == "small" && s.Traces == 2 && s.Seed == 2015 &&
				s.Scenario == campaign.ScenarioUncongested && s.Stride == 0 &&
				s.Workers == 0 && s.SlicesPerVantage == 1 && !s.Discover
		}},
		{name: "flags override base",
			args: []string{"-scenario", "congested-transit", "-traces", "7", "-stride", "3",
				"-slices", "2", "-workers", "9", "-seed", "-1", "-discover"},
			check: func(s campaign.Spec) bool {
				return s.Scenario == campaign.ScenarioCongestedTransit && s.Traces == 7 && s.Stride == 3 &&
					s.SlicesPerVantage == 2 && s.Workers == 9 && s.Seed == -1 && s.Discover
			}},
		{name: "flag repeating the base value still counts as set",
			args:  []string{"-scale", "paper", "-traces", "2"},
			check: func(s campaign.Spec) bool { return s.Scale == "paper" && s.Traces == 2 }},
		{name: "list value rejected by single-valued tool", args: []string{"-workers", "1,4,13"}, wantErr: "invalid value"},
		{name: "bad flag scenario caught by validation", args: []string{"-scenario", "congested"}, wantErr: "scenario"},
		{name: "bad flag scale caught by validation", args: []string{"-scale", "medium"}, wantErr: "scale"},
		{name: "negative flag traces caught by validation", args: []string{"-traces", "-2"}, wantErr: "traces"},
		{name: "negative flag stride caught by validation", args: []string{"-stride", "-1"}, wantErr: "stride"},
		{name: "negative flag workers rejected", args: []string{"-workers", "-2"}, wantErr: "workers"},
		{name: "garbage flag workers rejected", args: []string{"-workers", "all"}, wantErr: "workers"},
		{name: "negative flag slices rejected", args: []string{"-slices", "-1"}, wantErr: "slices"},
		{name: "garbage flag slices rejected", args: []string{"-slices", "many"}, wantErr: "slices"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := parseSpec(tc.args...)
			switch {
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("ecnspider %s: err %v, want one mentioning %q", strings.Join(tc.args, " "), err, tc.wantErr)
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr == "" && !tc.check(s):
				t.Fatalf("ecnspider %s: spec %+v", strings.Join(tc.args, " "), s)
			}
		})
	}
}

// TestFromEnv resolves ecnspider's campaign with every former REPRO_*
// campaign variable set to a value that would change or break it: the
// command line over the base spec is the whole configuration, so the
// defaults arrive untouched and a bad flag is refused whatever the
// environment holds.
func TestFromEnv(t *testing.T) {
	stale := map[string]string{"REPRO_SCALE": "paper", "REPRO_SCENARIO": "congested-edge",
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
			s, err := parseSpec(tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want one mentioning %q", err, tc.wantErr)
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
			if cfg.Scale != "small" || cfg.Scenario != campaign.ScenarioUncongested || cfg.Traces != 2 ||
				cfg.Stride != 0 || cfg.Seed != 2015 || cfg.Workers != 0 || cfg.SlicesPerVantage != 1 {
				t.Fatalf("defaults under a stale environment = %+v", cfg)
			}
		})
	}
}

// TestNoRetiredSpecFlags: the reference scheduler and cross-traffic
// drive have no flag.
func TestNoRetiredSpecFlags(t *testing.T) {
	fs := flag.NewFlagSet("ecnspider", flag.ContinueOnError)
	bindSpec(fs)
	for _, name := range []string{"sched", "xtraffic"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s is registered", name)
		}
	}
}

// ecnspider runs the command with args, which must exit 0, and returns
// its stderr.
func ecnspider(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ecnspider %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stderr.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
