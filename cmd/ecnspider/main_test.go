package main

// End to end: this test binary re-executed as ecnspider (TestMain), run
// the way README.md runs it. Each row's dataset must hash to
// cmd/determinism's pinned value for its scenario, whatever the
// execution shape.
//
//	go test -v ./cmd/ecnspider

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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

// The small, 2-trace, seed-2015 datasets: the first line of each
// scenario in cmd/determinism/golden.txt.
const (
	uncongestedSHA256   = "81e2952878d5e0990abb0094d3f50769437b0837021e33a770418fe8fdbe0fa8"
	congestedEdgeSHA256 = "11a385cfcde28b15ad2f0e30a0f591f5ba7ac8be147fc6744c9c47a49bcc4fda"
)

func TestDataset(t *testing.T) {
	for _, row := range []struct {
		name   string
		args   []string
		want   string
		stderr string // a line the run must log
	}{
		{"default", nil, uncongestedSHA256, "dataset written to"},
		{"sharded", []string{"-workers", "1", "-slices", "8"}, uncongestedSHA256, "in 26 shards"},
		{"congested-edge", []string{"-scenario", "congested-edge"}, congestedEdgeSHA256, "aggregate"},
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
	if got := sha(readFile(t, out)); got != uncongestedSHA256 {
		t.Fatalf("dataset hash under -pcap %s, want %s", got, uncongestedSHA256)
	}
	records, err := capture.ReadPcap(bytes.NewReader(readFile(t, pcap)))
	if err != nil || len(records) == 0 {
		t.Fatalf("pcap holds %d records, %v; want > 0", len(records), err)
	}
}

// ecnspider runs the command with args, which must exit 0, and returns
// its stderr. The REPRO_* environment is dropped: it would override the
// defaults the rows pin.
func ecnspider(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(slices.DeleteFunc(os.Environ(), func(kv string) bool {
		return strings.HasPrefix(kv, "REPRO_")
	}), childEnv+"=1")
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
