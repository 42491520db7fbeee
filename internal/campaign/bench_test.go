package campaign

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloctest"
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

// maxCampaignAllocs bounds one run of benchConfig at 4 workers net of
// the worlds it instantiates: the least net reading through
// alloctest.Measure (3.2k, on one P, with 2 worlds or 3) + 5 %. With
// probes, connections, the HTTP codec and the traceroute sweep
// allocation-free in steady state (recycled sessions, ICMP quotations
// read in place, one row slab per sweep) and one world per worker reset
// between shards, what is left is the compile and a shell per
// connection open at once, not per web server. A closure per probe, a
// copy per ICMP or garbage per exchange fails here long before it shows
// as wall-clock; a world per shard fails TestCampaignAllocs' count, and
// what a world costs is TestWorldBuildBudget's to hold.
const maxCampaignAllocs = 3_400

// TestCampaignAllocs holds BenchmarkCampaignWorkers/workers=4 to at
// most min(workers, shards) − 1 world instantiations a run — a world
// per shard fails — and to maxCampaignAllocs a run net of them. How
// many workers get a shard, and so instantiate a world, depends on
// scheduling, so the ceiling is held on what is left: the least of
// three runs, each after a warm one (alloctest.Measure), since the
// worker pool's goroutines share the window.
func TestCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts; the count cannot hold")
	}
	cfg := benchConfig(t)
	cfg.Workers = 4
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	// A world costs what an executor's first shard allocates beyond the
	// same shard on its reset world: the instantiation and what hangs
	// off a world (its server list, its shell pool).
	sh := cfg.Shards()[0]
	var ex *Executor
	execute := func() {
		if _, err := ex.Execute(sh.Shard, sh.Slice); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := alloctest.Measure(1, nil, func() { ex = NewExecutor(cfg, bp); execute() })
	reset, _ := alloctest.Measure(1, nil, execute)
	world := fresh.Allocs - reset.Allocs
	cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	maxWorlds := uint64(min(cfg.Workers, len(cfg.Shards())) - 1)
	var worlds uint64 // in the last run
	run := func() {
		before := cfg.Metrics.worldsInstantiated.Value()
		runCampaign(t, cfg)
		worlds = cfg.Metrics.worldsInstantiated.Value() - before
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		r, _ := alloctest.Measure(1, nil, run)
		net := r.Allocs - worlds*world
		t.Logf("campaign at 4 workers: %d allocs a run, %d worlds instantiated at %d allocs each: %d net (ceiling %d)",
			r.Allocs, worlds, world, net, maxCampaignAllocs)
		if worlds > maxWorlds {
			t.Errorf("campaign at 4 workers instantiated %d worlds, want ≤ %d", worlds, maxWorlds)
		}
		least = min(least, net)
	}
	if least > maxCampaignAllocs {
		t.Errorf("campaign at 4 workers: %d allocs a run net of its worlds, want ≤ %d", least, maxCampaignAllocs)
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
// instantiation in disguise. A GC between a trace and its Reset would
// empty the packet and AQM sync.Pools the reset refills from;
// alloctest.Measure holds the collector off from each warm-up trace to
// its measured Reset.
func TestWorldResetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts; the count cannot hold")
	}
	w, runTrace := usedWorld(t)
	trace := 0
	next := func() { runTrace(trace); trace++ }
	for i := 0; i < 3; i++ {
		if r, _ := alloctest.Measure(1, next, w.Reset); r.Allocs > 0 {
			t.Fatalf("reset %d of a used paper-scale world: %d allocs (%d B), want 0", i, r.Allocs, r.Bytes)
		}
	}
}

// worldBuildBudget bounds what building a paper-scale world costs, as
// TestWorldBuildBudget measures it, on the uncongested world and on the
// congested-transit one (RED queues and their FIFOs included): the
// readings with the address index shared by every world of a blueprint,
// slices sized from the config, slice-held connections, the packed
// route table and the 112-byte Link, plus about 5 % on a compile and on
// allocation counts and about 2.5 % on a world's bytes. A dense
// routers² route table (+0.95 MB compiling), a Link with per-direction
// delay, lane and loss (128-byte class, +52 KB a world), a map per
// host, listener or stack, or a world that keeps more than it needs
// fails here.
var worldBuildBudget = []struct {
	scenario                             string
	compileMB, instantiateMB, retainedMB float64
	compileAllocs, instantiateAllocs     uint64
}{
	// Readings: 1.982 MB and 29 009 allocs; 1.639 MB and 27 469 allocs;
	// 1.619 MB retained.
	{scenario: ScenarioUncongested,
		compileMB: 2.08, compileAllocs: 30_480,
		instantiateMB: 1.68, instantiateAllocs: 28_870,
		retainedMB: 1.66},
	// Readings: 2.237 MB and 29 520 allocs; 1.894 MB and 27 984 allocs;
	// 1.873 MB retained.
	{scenario: ScenarioCongestedTransit,
		compileMB: 2.35, compileAllocs: 31_020,
		instantiateMB: 1.94, instantiateAllocs: 29_410,
		retainedMB: 1.92},
}

// maxScaffoldKB bounds a build's scaffolding: the bytes Compile and
// Instantiate each allocate beyond what the blueprint and its world, or
// the instantiated world, keep. A registry grown by doubling instead of
// sized from the config, or a private copy of what the blueprint
// shares, is garbage the moment the build returns and fails here.
const maxScaffoldKB = 64

// TestWorldBuildBudget holds a paper-scale Compile and Instantiate to
// worldBuildBudget and maxScaffoldKB: the bytes and allocations each
// makes after a warm-up run of its own (alloctest.Measure, which holds
// the collector off), what each keeps, and the heap one instantiated
// world retains beyond its blueprint.
func TestWorldBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations; the budget is for the plain build")
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // and empty the sync.Pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	// measure reads run after a warm-up run; setup drops what the
	// warm-up kept, so the live heap grows by what the measured run
	// keeps.
	measure := func(setup, run func()) (mb float64, allocs uint64, keptMB float64) {
		base := heap()
		r, _ := alloctest.Measure(1, setup, run)
		return float64(r.Bytes) / 1e6, r.Allocs, heap() - base
	}
	for _, b := range worldBuildBudget {
		t.Run(b.scenario, func(t *testing.T) {
			cfg := Config{Spec: Spec{Scale: "paper", Scenario: b.scenario, Seed: 2015}}
			var bp *topology.Blueprint
			var err error
			compileMB, compileAllocs, compileKept := measure(func() { bp = nil }, func() { bp, err = cfg.CompileBlueprint() })
			if err != nil {
				t.Fatal(err)
			}
			var w *topology.World
			instMB, instAllocs, retainedMB := measure(func() { w = nil }, func() { w, err = bp.Instantiate(netsim.NewSim(cfg.Seed)) })
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(bp)
			runtime.KeepAlive(w)

			t.Logf("compile: %.3f MB, %d allocs, %.0f KB scaffolding (ceiling %.2f MB, %d, %d KB)",
				compileMB, compileAllocs, 1e3*(compileMB-compileKept), b.compileMB, b.compileAllocs, maxScaffoldKB)
			t.Logf("instantiate: %.3f MB, %d allocs, %.0f KB scaffolding (ceiling %.2f MB, %d, %d KB)",
				instMB, instAllocs, 1e3*(instMB-retainedMB), b.instantiateMB, b.instantiateAllocs, maxScaffoldKB)
			t.Logf("one world retains %.3f MB beyond its blueprint (ceiling %.2f MB)", retainedMB, b.retainedMB)
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
