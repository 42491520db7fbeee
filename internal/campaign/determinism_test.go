package campaign

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// TestDeterminismGrid is the engine's headline guarantee, and the
// control plane's correctness contract: a spec yields one dataset
// whatever runs it. For every scenario it runs the same small-scale
// campaign across slices {1, 2, 8} × workers {1, 4, 13} — one shard per
// vantage through more slices than traces, sequential through one
// goroutine per vantage — and each of those on all four engines: the
// production delivery lanes and the reference heap, under the production
// lazy cross-traffic replay and the reference event-per-boundary drive.
// Every cell runs with a full telemetry set attached, so the grid is
// also the out-of-band proof for the flight recorder.
//
// Each cell prints the SHA-256 of its merged dataset in canonical
// JSON-lines form and a rows= column, the canonical digest of its
// traceroute sweep rows (stride 12; traceroute.HashRows). Within a
// scenario all 36 cells must agree on the dataset hash, the congestion
// samples and the number of sweep rows, and on the row digest per
// cross-traffic drive: on congested-transit the two drives agree on
// every row but order two paths that complete in the same nanosecond
// differently (rows are listed in completion order). The sweep runs in
// its own epoch on its own PRNG stream, so it cannot move the dataset
// hash.
//
// The 108 lines and the OK line must then equal
// testdata/determinism.golden byte for byte, so a change that keeps
// every cell equal to its neighbours but moves them all still fails. A
// change meant to move a hash or a digest rewrites the file from the
// output this test leaves behind on a mismatch, and says why. Every row
// of cmd/reprod's TestEndToEnd holds a served dataset to the first
// column's default-scenario hash.
//
// Under -race or -short only the slices=2 × workers=4 cells run, each
// line checked against its golden line.
func TestDeterminismGrid(t *testing.T) {
	goldenBytes, err := os.ReadFile("testdata/determinism.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.SplitAfter(string(goldenBytes), "\n")
	subset := raceEnabled || testing.Short()

	var out strings.Builder
	line, runs, failed := 0, 0, false
	for _, scenario := range Scenarios() {
		var ref *Result
		var refHash string
		refRows := map[string]string{}
		for _, slices := range []int{1, 2, 8} {
			for _, workers := range []int{1, 4, 13} {
				spec := DefaultSpec()
				spec.Scale = "small"
				spec.Traces = 2
				spec.Stride = 12
				spec.Scenario = scenario
				spec.SlicesPerVantage = slices
				spec.Workers = workers
				cfg, err := spec.Config()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					line++
					if subset && (slices != 2 || workers != 4) {
						continue
					}
					label := fmt.Sprintf("scenario=%s sched=%s xtraffic=%s slices=%d workers=%d",
						scenario, e.sched.Name(), e.xt.Name(), slices, workers)
					cfg.Metrics = NewMetrics(telemetry.NewRegistry())
					res := e.run(t, cfg)
					h := sha256.New()
					if err := dataset.Write(h, res.Dataset); err != nil {
						t.Fatal(err)
					}
					sum, rows := fmt.Sprintf("%x", h.Sum(nil)), traceroute.HashRows(res.PathObs...)
					got := fmt.Sprintf("%s  %s rows=%s\n", sum, label, rows)
					out.WriteString(got)
					runs++
					if subset && got != golden[line-1] {
						t.Errorf("%s: got\n%swant\n%s", label, got, golden[line-1])
					}

					if ref == nil {
						ref, refHash = res, sum
					}
					if refRows[e.xt.Name()] == "" {
						refRows[e.xt.Name()] = rows
					}
					if sum != refHash || rows != refRows[e.xt.Name()] ||
						rowCount(res.PathObs) != rowCount(ref.PathObs) ||
						!reflect.DeepEqual(res.Congestion, ref.Congestion) {
						t.Errorf("diverges at %s: dataset equal: %v, sweep rows equal: %v, row count %d vs %d, congestion samples equal: %v",
							label, sum == refHash, rows == refRows[e.xt.Name()],
							rowCount(res.PathObs), rowCount(ref.PathObs), reflect.DeepEqual(res.Congestion, ref.Congestion))
						failed = true
					}
				}
			}
		}
	}
	if subset {
		t.Logf("%d of the grid's %d cells equal their golden lines", runs, line)
		return
	}
	if !failed {
		fmt.Fprintf(&out, "determinism: OK — %d merged datasets identical across the slices × workers × scheduler × cross-traffic grid, their traceroute sweep rows across slices × workers × scheduler\n", runs)
	}
	if got := out.String(); got != string(goldenBytes) {
		gotLines := strings.SplitAfter(got, "\n")
		for i := range min(len(gotLines), len(golden)) {
			if gotLines[i] != golden[i] {
				t.Errorf("line %d differs from testdata/determinism.golden:\n got: %s want: %s", i+1, gotLines[i], golden[i])
				break
			}
		}
		f, err := os.CreateTemp("", "determinism-*.golden")
		if err == nil {
			_, err = f.WriteString(got)
			f.Close()
		}
		if err != nil {
			t.Fatalf("output differs from testdata/determinism.golden (and could not be saved: %v):\n%s", err, got)
		}
		t.Fatalf("output differs from testdata/determinism.golden; this run's output is %s", f.Name())
	}
}

// TestSliceCountInvarianceWithDiscovery covers the subtle corner:
// DNS discovery runs in every slice (each needs the server list), so
// non-sweep slices must report only post-discovery deltas in their
// congestion samples — otherwise the CE-mark report would count the
// discovery traffic once per slice and drift with the slice count.
func TestSliceCountInvarianceWithDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test in -short mode")
	}
	run := func(slices int) *Result {
		cfg := testConfig()
		cfg.Scenario = ScenarioCongestedEdge
		cfg.TracePlan = map[string]int{"Perkins home": 2, "McQuistin home": 2}
		cfg.Stride = 0
		cfg.Discover = true
		cfg.DiscoveryRounds = 8
		cfg.SlicesPerVantage = slices
		return runOrFatal(t, cfg)
	}
	ref := run(1)
	if len(ref.Congestion) != 2 {
		t.Fatalf("congestion samples = %d, want 2", len(ref.Congestion))
	}
	for _, slices := range []int{2, 8} {
		got := run(slices)
		if !bytes.Equal(encode(t, ref.Dataset), encode(t, got.Dataset)) {
			t.Errorf("slices=%d: discovered-campaign dataset differs from slices=1", slices)
		}
		if len(got.Congestion) != len(ref.Congestion) {
			t.Fatalf("slices=%d: %d congestion samples, want %d", slices, len(got.Congestion), len(ref.Congestion))
		}
		for i := range ref.Congestion {
			if ref.Congestion[i] != got.Congestion[i] {
				t.Errorf("slices=%d: congestion sample %d counts discovery traffic per slice:\n%+v\n%+v",
					slices, i, ref.Congestion[i], got.Congestion[i])
			}
		}
	}
}

// TestSliceShardShape checks the work partition: slices split each
// vantage's quota into contiguous blocks, exactly one slice per vantage
// owns the traceroute sweep, and per-shard stats stay coherent.
func TestSliceShardShape(t *testing.T) {
	cfg := testConfig() // 2 traces per vantage
	cfg.SlicesPerVantage = 2
	res := runOrFatal(t, cfg)
	nv := len(topology.VantageNames())
	if got, want := len(res.Shards), 2*nv; got != want {
		t.Fatalf("shards = %d, want %d", got, want)
	}
	var events uint64
	for i, s := range res.Shards {
		if s.Shard != i/2 || s.Slice != i%2 {
			t.Errorf("shard %d: (vantage,slice) = (%d,%d)", i, s.Shard, s.Slice)
		}
		if s.Traces != 1 {
			t.Errorf("shard %d ran %d traces, want 1", i, s.Traces)
		}
		events += s.Events
	}
	if events != res.Events {
		t.Errorf("events sum %d != total %d", events, res.Events)
	}
	if got, want := len(res.Dataset.Traces), 2*nv; got != want {
		t.Fatalf("merged traces = %d, want %d", got, want)
	}
	if len(res.PathObs) == 0 {
		t.Error("no traceroute observations with slicing")
	}
	// More slices than traces: empty slices are skipped, nothing lost.
	cfg.SlicesPerVantage = 8
	res8 := runOrFatal(t, cfg)
	if got, want := len(res8.Shards), 2*nv; got != want {
		t.Fatalf("slices=8: shards = %d, want %d (empty slices skipped)", got, want)
	}
	if !bytes.Equal(encode(t, res.Dataset), encode(t, res8.Dataset)) {
		t.Error("slices=8 dataset differs from slices=2")
	}
}

// TestGOMAXPROCSInvariance pins the other half of the guarantee: the
// result does not depend on how many CPUs the scheduler may use.
func TestGOMAXPROCSInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test in -short mode")
	}
	cfg := testConfig()
	cfg.Workers = 4

	prev := runtime.GOMAXPROCS(1)
	one := encode(t, runOrFatal(t, cfg).Dataset)
	runtime.GOMAXPROCS(prev)
	if prev == 1 && runtime.NumCPU() > 1 {
		runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
	}
	many := encode(t, runOrFatal(t, cfg).Dataset)
	if !bytes.Equal(one, many) {
		t.Error("merged dataset depends on GOMAXPROCS")
	}
}

// sweepRowHash is traceroute.HashRows over testConfig()'s merged
// Result.PathObs (small world, stride 12, seed 2015), recorded at commit
// 92041ea — the last build whose sweep copied every ICMP body and grew a
// slice per path. The sweep has been rewritten since; its rows have not
// changed.
const sweepRowHash = "478184b55c11e82517db5348fad531da5a724425815ddd95aee4289f45ca29dd"

// TestSweepRowHash pins the traceroute sweep's output row for row. The
// dataset hash cannot see the sweep (path observations are not part of
// the dataset) and the other invariance tests compared only the row
// count and the rendered Figure 4, so this is the gate that holds a
// change to traceroute, the ICMP path or the merge to "same rows": the
// canonical row digest must equal the recorded one for every workers ×
// slices shape.
func TestSweepRowHash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test in -short mode")
	}
	for _, workers := range []int{1, 4, 13} {
		for _, slices := range []int{1, 2, 8} {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.SlicesPerVantage = slices
			res := runOrFatal(t, cfg)
			if len(res.PathObs) == 0 {
				t.Fatalf("workers=%d slices=%d: sweep produced no rows", workers, slices)
			}
			if got := traceroute.HashRows(res.PathObs...); got != sweepRowHash {
				t.Errorf("workers=%d slices=%d: %d sweep rows hash to %s, want %s",
					workers, slices, rowCount(res.PathObs), got, sweepRowHash)
			}
		}
	}
}
