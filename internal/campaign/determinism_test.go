package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// TestWorkerCountInvariance is the engine's headline guarantee: the same
// campaign seed yields a byte-identical merged dataset — and identical
// downstream analysis artefacts — whether the shards run sequentially on
// one worker, on a small pool, or one goroutine per vantage.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test in -short mode")
	}

	type artefacts struct {
		data    []byte
		pathObs int
		figure4 string
		figure5 string
		figure6 string
	}
	run := func(workers int) artefacts {
		cfg := testConfig()
		cfg.Workers = workers
		res := runOrFatal(t, cfg)
		f5 := analysis.ComputeFigure5(res.Dataset)
		return artefacts{
			data:    encode(t, res.Dataset),
			pathObs: rowCount(res.PathObs),
			figure4: analysis.RenderFigure4(analysis.ComputeFigure4(res.PathObs, res.World.ASN)),
			figure5: analysis.RenderFigure5(f5),
			figure6: analysis.RenderFigure6(analysis.ComputeFigure6(f5)),
		}
	}

	ref := run(1)
	if len(ref.data) == 0 || ref.pathObs == 0 {
		t.Fatal("reference run is empty")
	}
	for _, workers := range []int{4, 13} {
		got := run(workers)
		if !bytes.Equal(got.data, ref.data) {
			t.Errorf("workers=%d: merged dataset differs from workers=1 (%d vs %d bytes)",
				workers, len(got.data), len(ref.data))
		}
		if got.pathObs != ref.pathObs {
			t.Errorf("workers=%d: %d path observations, want %d", workers, got.pathObs, ref.pathObs)
		}
		if got.figure4 != ref.figure4 {
			t.Errorf("workers=%d: Figure 4 differs:\n%s\nvs\n%s", workers, got.figure4, ref.figure4)
		}
		if got.figure5 != ref.figure5 {
			t.Errorf("workers=%d: Figure 5 differs:\n%s\nvs\n%s", workers, got.figure5, ref.figure5)
		}
		if got.figure6 != ref.figure6 {
			t.Errorf("workers=%d: Figure 6 differs:\n%s\nvs\n%s", workers, got.figure6, ref.figure6)
		}
	}
}

// TestSliceCountInvariance is the sub-vantage sharding guarantee: the
// merged dataset, traceroute observations and congestion report are
// byte-identical whether each vantage runs as one shard or split into
// contiguous trace slices — including more slices than traces. With
// per-trace seeds, epoch-pinned starts and transient resets, a trace
// cannot tell which simulator it shared.
func TestSliceCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test in -short mode")
	}
	for _, scenario := range []string{ScenarioUncongested, ScenarioCongestedEdge} {
		var refData []byte
		var refObs int
		var refCong []analysis.CEMarkSample
		for _, slices := range []int{1, 2, 8} {
			cfg := testConfig()
			cfg.Scenario = scenario
			cfg.SlicesPerVantage = slices
			res := runOrFatal(t, cfg)
			data := encode(t, res.Dataset)
			if refData == nil {
				refData, refObs, refCong = data, rowCount(res.PathObs), res.Congestion
				continue
			}
			if !bytes.Equal(refData, data) {
				t.Errorf("%s: dataset differs between slices=1 and slices=%d", scenario, slices)
			}
			if got := rowCount(res.PathObs); got != refObs {
				t.Errorf("%s: slices=%d: %d path observations, want %d", scenario, slices, got, refObs)
			}
			if len(res.Congestion) != len(refCong) {
				t.Fatalf("%s: slices=%d: %d congestion samples, want %d", scenario, slices, len(res.Congestion), len(refCong))
			}
			for i := range refCong {
				if refCong[i] != res.Congestion[i] {
					t.Errorf("%s: slices=%d: congestion sample %d differs:\n%+v\n%+v",
						scenario, slices, i, refCong[i], res.Congestion[i])
				}
			}
		}
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

// TestSchedulerDifferential is the timing wheel's end-to-end gate: a
// full small campaign (all scenarios, with traceroutes) run on the heap
// fallback must produce the byte-identical merged dataset the wheel
// produces, so the fallback cannot rot and the wheel cannot drift.
func TestSchedulerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run differential test in -short mode")
	}
	for _, scenario := range Scenarios() {
		var ref []byte
		var refObs int
		for _, sched := range []netsim.Scheduler{netsim.SchedWheel, netsim.SchedHeap} {
			cfg := testConfig()
			cfg.Scenario = scenario
			cfg.Scheduler = sched
			cfg.SlicesPerVantage = 2
			res := runOrFatal(t, cfg)
			data := encode(t, res.Dataset)
			if ref == nil {
				ref, refObs = data, rowCount(res.PathObs)
				continue
			}
			if !bytes.Equal(ref, data) {
				t.Errorf("%s: merged dataset differs between wheel and heap", scenario)
			}
			if got := rowCount(res.PathObs); got != refObs {
				t.Errorf("%s: path observations differ between wheel and heap: %d vs %d",
					scenario, got, refObs)
			}
		}
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
