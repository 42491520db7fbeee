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

	"repro/internal/campaign/goldentest"
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
// Each cell must equal its scenario's row of the golden table
// (goldentest, small.golden): the SHA-256 of its merged dataset in
// canonical JSON-lines form, the canonical digest of its traceroute
// sweep rows (stride 12; traceroute.HashRows; rows are listed in
// completion order, so the digest also pins the order of paths that
// complete in the same nanosecond), its real event count and its
// serialization boundaries. Within a scenario the cells must also agree
// on the congestion samples and the number of sweep rows, which must
// not be zero. The sweep runs in its own epoch on its own PRNG stream,
// so it cannot move the dataset hash.
//
// On a mismatch the test writes the table it observed (each scenario's
// first cells) to a temp file and prints its line diff against the
// golden one; a change meant to move a pin copies that file over
// small.golden and says why.
//
// Under -race or -short only the slices=2 × workers=4 cells run, so
// sweep rows are then checked on those 12 cells alone.
func TestDeterminismGrid(t *testing.T) {
	subset := raceEnabled || testing.Short()

	var observed []goldentest.Row
	cells, runs := 0, 0
	for _, scenario := range Scenarios() {
		want := goldentest.Small(t, scenario)
		var obs goldentest.Row // the scenario's first cell
		var ref *Result
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
					cells++
					if subset && (slices != 2 || workers != 4) {
						continue
					}
					runs++
					label := fmt.Sprintf("scenario=%s sched=%s xtraffic=%s slices=%d workers=%d",
						scenario, e.sched.Name(), e.xt.Name(), slices, workers)
					cfg.Metrics = NewMetrics(telemetry.NewRegistry())
					res := e.run(t, cfg)
					h := sha256.New()
					if err := dataset.Write(h, res.Dataset); err != nil {
						t.Fatal(err)
					}
					got := goldentest.Row{
						Scenario:   scenario,
						Dataset:    fmt.Sprintf("%x", h.Sum(nil)),
						Rows:       traceroute.HashRows(res.PathObs...),
						Events:     res.Events - res.PhantomEvents,
						Boundaries: res.PhantomEvents + res.ReplayedBoundaries,
					}
					if ref == nil {
						ref, obs = res, got
					}
					var differ []string
					for _, c := range []struct {
						column    string
						got, want any
					}{
						{"dataset", got.Dataset, want.Dataset},
						{"rows", got.Rows, want.Rows},
						{"events", got.Events, want.Events},
						{"boundaries", got.Boundaries, want.Boundaries},
					} {
						if c.got != c.want {
							differ = append(differ, fmt.Sprintf("%s %v, the table's %v", c.column, c.got, c.want))
						}
					}
					if len(differ) > 0 {
						t.Errorf("%s: %s", label, strings.Join(differ, "; "))
					}
					if n := rowCount(res.PathObs); n == 0 || n != rowCount(ref.PathObs) ||
						!reflect.DeepEqual(res.Congestion, ref.Congestion) {
						t.Errorf("%s: %d sweep rows (first cell %d), congestion samples equal: %v",
							label, n, rowCount(ref.PathObs), reflect.DeepEqual(res.Congestion, ref.Congestion))
					}
				}
			}
		}
		observed = append(observed, obs)
	}
	t.Logf("%d of the grid's %d cells run", runs, cells)
	got, golden := goldentest.Format(observed), goldentest.Table()
	if got == golden {
		return
	}
	var diff strings.Builder
	gotLines, goldenLines := strings.Split(got, "\n"), strings.Split(golden, "\n")
	for i := range max(len(gotLines), len(goldenLines)) {
		g, w := line(gotLines, i), line(goldenLines, i)
		if g != w {
			fmt.Fprintf(&diff, "-%s\n+%s\n", w, g)
		}
	}
	f, err := os.CreateTemp("", "small-*.golden")
	if err == nil {
		_, err = f.WriteString(got)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatalf("the observed table differs from small.golden (and could not be saved: %v):\n%s", err, diff.String())
	}
	t.Fatalf("the observed table differs from small.golden (- golden, + observed):\n%sthe observed table is %s", diff.String(), f.Name())
}

// line is lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
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
