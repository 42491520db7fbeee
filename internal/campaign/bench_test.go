package campaign

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// benchConfig is the one campaign the benchmarks and allocation tests
// here run: the small world, 2 traces per vantage, every 3rd server
// traced, seed 2015. They are small-world canaries; paper-scale numbers
// come from the declared benchmark (go run ./bench).
func benchConfig(tb testing.TB) Config {
	s := DefaultSpec()
	s.Scale = "small"
	s.Traces = 2
	cfg, err := s.Config()
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

// benchRun executes a campaign configuration repeatedly.
func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, cfg)
	}
}

func runCampaign(tb testing.TB, cfg Config) {
	tb.Helper()
	res, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Dataset.Traces) == 0 {
		tb.Fatal("empty campaign")
	}
}

// mallocs returns the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// maxCampaignAllocs bounds one run of benchConfig at 4 workers: the
// reading when the campaign path last changed (14.7k) + 5 %. With
// probes, connections, the HTTP codec and the traceroute sweep
// allocation-free in steady state (recycled sessions, ICMP quotations
// read in place, one row slab per sweep), one world per worker reset
// between shards — the first of them the world compiling built — and
// one shell pool per world, what is left is 3 world instantiations, not
// 13, and a shell per connection open at once, not per web server. A
// closure per probe, a copy per ICMP, garbage per exchange, a world per
// shard, shells or a map per stack, or a private address index per
// world fails here long before it shows as wall-clock.
const maxCampaignAllocs = 15_450

// TestCampaignAllocs holds BenchmarkCampaignWorkers/workers=4 under
// maxCampaignAllocs a run, measured over two runs after a warm one.
func TestCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts; the count cannot hold")
	}
	cfg := benchConfig(t)
	cfg.Workers = 4
	runCampaign(t, cfg)
	const runs = 2
	n := mallocs(func() {
		for i := 0; i < runs; i++ {
			runCampaign(t, cfg)
		}
	}) / runs
	t.Logf("campaign at 4 workers: %d allocs a run (ceiling %d)", n, maxCampaignAllocs)
	if n > maxCampaignAllocs {
		t.Errorf("campaign at 4 workers: %d allocs a run, want ≤ %d", n, maxCampaignAllocs)
	}
}

// BenchmarkCampaignWorkers compares wall time across worker-pool sizes on
// the same campaign; the acceptance target is >1.5× speedup of the
// multi-worker rows over workers=1 on multicore hardware.
func BenchmarkCampaignWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.Workers = workers
			benchRun(b, cfg)
		})
	}
}

// BenchmarkCampaignPaper runs the declared benchmark's paper-direct
// campaign — DefaultSpec, paper scale, on 2 workers — for profiles:
// `make profile` runs it once under -cpuprofile and a rate-1
// -memprofile and prints where its CPU time and its allocated bytes go.
// (go run ./bench times the same campaign plus writing its dataset.)
func BenchmarkCampaignPaper(b *testing.B) {
	s := DefaultSpec()
	s.Workers = 2
	cfg, err := s.Config()
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, cfg)
}

// BenchmarkCampaignSlices holds the worker pool at GOMAXPROCS and varies
// sub-vantage slicing: with more shards than vantages the pool packs
// better (no long-tail shard pins a worker), at the price of more world
// instantiations — which the shared blueprint keeps cheap.
func BenchmarkCampaignSlices(b *testing.B) {
	for _, slices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("slices=%d", slices), func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.SlicesPerVantage = slices
			benchRun(b, cfg)
		})
	}
}

// BenchmarkShardBuild isolates the per-shard fixed cost a campaign pays
// for every (vantage, slice) shard: instantiating a world into a fresh
// simulator from the compiled blueprint. Before shared worlds this was
// a full generation plus an all-pairs route computation per shard;
// scripts/perf_gate.sh keeps its wall-clock from regressing.
func BenchmarkShardBuild(b *testing.B) {
	cfg := benchConfig(b)
	topo, err := cfg.topologyConfig()
	if err != nil {
		b.Fatal(err)
	}
	bp, err := topology.Compile(topo, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Instantiate(netsim.NewSim(cfg.Seed)); err != nil {
			b.Fatal(err)
		}
	}
}

// usedWorld is a paper-scale world and the step that leaves it used:
// trace i of its first vantage, run to completion. Paper scale because
// the reset contract is about the world the declared benchmark's
// workloads run.
func usedWorld(tb testing.TB) (w *topology.World, runTrace func(i int)) {
	cfg := Config{Spec: Spec{Scale: "paper", Seed: 2015}}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		tb.Fatal(err)
	}
	sim := netsim.NewSim(cfg.Seed)
	if w, err = bp.Instantiate(sim); err != nil {
		tb.Fatal(err)
	}
	v, servers := w.Vantages[0], w.ServerAddrs()
	return w, func(i int) {
		sim.Reseed(TraceSeed(cfg.Seed, 0, i))
		w.ApplyTraceConditions(v, topology.Batch1, sim.RNG())
		done := false
		core.RunTrace(v, servers, topology.Batch1, i, func(dataset.Trace) { done = true })
		sim.Run()
		if !done {
			tb.Fatal("trace did not complete")
		}
	}
}

// BenchmarkWorldReset is what a shard costs an executor that already
// holds a world: a paper-scale world that has just run one full trace,
// Reset (the trace runs off the clock). BenchmarkShardBuild above is the
// fresh-instantiate cost it replaces.
func BenchmarkWorldReset(b *testing.B) {
	w, runTrace := usedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runTrace(i)
		b.StartTimer()
		w.Reset()
	}
}

// TestWorldResetAllocFree: resetting a paper-scale world that has just
// run a trace allocates nothing — a reset that allocates is an
// instantiation in disguise. The count is every malloc in the process,
// and a GC between a trace and its Reset empties the packet and AQM
// sync.Pools the reset refills from, so the collector is held off from
// the first trace to the last measured Reset.
func TestWorldResetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts; the count cannot hold")
	}
	w, runTrace := usedWorld(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		runTrace(i)
		if n := mallocs(w.Reset); n > 0 {
			t.Fatalf("reset %d of a used paper-scale world: %d allocs, want 0", i, n)
		}
	}
}

// worldBuildBudget bounds what building a paper-scale world costs, as
// TestWorldBuildBudget measures it, on the uncongested world and on the
// congested-transit one (RED queues and their FIFOs included): the
// readings with the address index shared by every world of a blueprint,
// slices sized from the config and slice-held connections, plus about
// 5 %. A route table in per-router rows, a map per host, listener or
// stack, or a world that keeps more than it needs fails here.
var worldBuildBudget = []struct {
	scenario                             string
	compileMB, instantiateMB, retainedMB float64
	compileAllocs, instantiateAllocs     uint64
}{
	// Readings: 3.17 MB and 36 528 allocs; 1.96 MB and 34 986 allocs;
	// 1.93 MB retained.
	{scenario: ScenarioUncongested,
		compileMB: 3.33, compileAllocs: 38_350,
		instantiateMB: 2.06, instantiateAllocs: 36_740,
		retainedMB: 2.03},
	// Readings: 3.43 MB and 37 079 allocs; 2.22 MB and 35 540 allocs;
	// 2.19 MB retained.
	{scenario: ScenarioCongestedTransit,
		compileMB: 3.60, compileAllocs: 38_930,
		instantiateMB: 2.33, instantiateAllocs: 37_320,
		retainedMB: 2.30},
}

// maxScaffoldKB bounds a build's scaffolding: the bytes Compile and
// Instantiate each allocate beyond what the blueprint and its world, or
// the instantiated world, keep. A registry grown by doubling instead of
// sized from the config, or a private copy of what the blueprint
// shares, is garbage the moment the build returns and fails here.
const maxScaffoldKB = 64

// TestWorldBuildBudget holds a paper-scale Compile and Instantiate to
// worldBuildBudget and maxScaffoldKB: the bytes and allocations each
// makes, what each keeps, and the heap one instantiated world retains
// beyond its blueprint. The collector is held off while they run, as
// in TestWorldResetAllocFree, and forced only to read the live heap.
func TestWorldBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations; the budget is for the plain build")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // and empty the sync.Pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	// measure runs f and returns the bytes and allocations it makes and
	// the bytes still live after it.
	measure := func(f func()) (mb float64, allocs uint64, keptMB float64) {
		var before, after runtime.MemStats
		base := heap()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, after.Mallocs - before.Mallocs, heap() - base
	}
	for _, b := range worldBuildBudget {
		t.Run(b.scenario, func(t *testing.T) {
			cfg := Config{Spec: Spec{Scale: "paper", Scenario: b.scenario, Seed: 2015}}
			var bp *topology.Blueprint
			var err error
			compileMB, compileAllocs, compileKept := measure(func() { bp, err = cfg.CompileBlueprint() })
			if err != nil {
				t.Fatal(err)
			}
			var w *topology.World
			instMB, instAllocs, retainedMB := measure(func() { w, err = bp.Instantiate(netsim.NewSim(cfg.Seed)) })
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(bp)
			runtime.KeepAlive(w)

			t.Logf("compile: %.2f MB, %d allocs, %.0f KB scaffolding (ceiling %.2f MB, %d, %d KB)",
				compileMB, compileAllocs, 1e3*(compileMB-compileKept), b.compileMB, b.compileAllocs, maxScaffoldKB)
			t.Logf("instantiate: %.2f MB, %d allocs, %.0f KB scaffolding (ceiling %.2f MB, %d, %d KB)",
				instMB, instAllocs, 1e3*(instMB-retainedMB), b.instantiateMB, b.instantiateAllocs, maxScaffoldKB)
			t.Logf("one world retains %.2f MB beyond its blueprint (ceiling %.2f MB)", retainedMB, b.retainedMB)
			if compileMB > b.compileMB || compileAllocs > b.compileAllocs {
				t.Errorf("compile: %.2f MB, %d allocs; want ≤ %.2f MB, %d", compileMB, compileAllocs, b.compileMB, b.compileAllocs)
			}
			if instMB > b.instantiateMB || instAllocs > b.instantiateAllocs {
				t.Errorf("instantiate: %.2f MB, %d allocs; want ≤ %.2f MB, %d", instMB, instAllocs, b.instantiateMB, b.instantiateAllocs)
			}
			if retainedMB > b.retainedMB {
				t.Errorf("one world retains %.2f MB; want ≤ %.2f MB", retainedMB, b.retainedMB)
			}
			for _, c := range []struct {
				op         string
				mb, keptMB float64
			}{{"compile", compileMB, compileKept}, {"instantiate", instMB, retainedMB}} {
				if kb := 1e3 * (c.mb - c.keptMB); kb > maxScaffoldKB {
					t.Errorf("%s allocates %.0f KB beyond the %.2f MB it keeps; want ≤ %d KB", c.op, kb, c.keptMB, maxScaffoldKB)
				}
			}
		})
	}
}

// BenchmarkWorldBuildPaper is the paper-scale world build: a Compile,
// which a campaign pays once, and an Instantiate, which each further
// executor pays. The one-iteration `make bench` smoke covers it.
func BenchmarkWorldBuildPaper(b *testing.B) {
	cfg := Config{Spec: Spec{Scale: "paper", Seed: 2015}}
	var bp *topology.Blueprint
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if bp, err = cfg.CompileBlueprint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instantiate", func(b *testing.B) {
		if bp == nil {
			b.Skip("compile did not run")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bp.Instantiate(netsim.NewSim(cfg.Seed)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorldCompile is the campaign's one-time fixed cost: full
// world generation plus routing, paid once per Run however many shards
// fan out from it.
func BenchmarkWorldCompile(b *testing.B) {
	cfg := benchConfig(b)
	topo, err := cfg.topologyConfig()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.Compile(topo, cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignTelemetry measures what attaching a full Metrics
// set costs the campaign. Each iteration runs a plain/instrumented
// pair back to back — alternating which goes first, so in-process
// drift (heap growth shifts GC pacing enough that a benchmark that
// merely runs *later* in the process can look tens of percent slower)
// cancels instead of masquerading as overhead — and reports the paired
// difference as an `overhead-%` metric. scripts/perf_gate.sh reads
// that metric and fails above 2 %: the budget that keeps the flight
// recorder always-on in the control plane. ns/op covers both runs of
// the pair.
//
// Declared last on purpose: it runs many extra campaigns, and keeping
// it after the benchmarks that perf_gate compares against the base ref
// preserves identical in-process run order between the two trees.
func BenchmarkCampaignTelemetry(b *testing.B) {
	plain := benchConfig(b)
	// One worker: the overhead of the per-shard flush is the same, and
	// a single-threaded campaign gives the paired comparison a far
	// steadier baseline than multi-worker scheduling jitter.
	plain.Workers = 1
	inst := plain
	inst.Metrics = NewMetrics(telemetry.NewRegistry())

	timed := func(cfg Config) int64 {
		// Start every run from a freshly collected heap: on a small
		// machine a GC cycle landing inside one side of a pair would
		// otherwise dominate the difference being measured.
		runtime.GC()
		start := time.Now()
		runCampaign(b, cfg)
		return time.Since(start).Nanoseconds()
	}

	var plainNS, instNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			plainNS += timed(plain)
			instNS += timed(inst)
		} else {
			instNS += timed(inst)
			plainNS += timed(plain)
		}
	}
	b.ReportMetric(float64(instNS-plainNS)*100/float64(plainNS), "overhead-%")
}
