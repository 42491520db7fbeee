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
		s, err := resolveSpec(spec)
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
