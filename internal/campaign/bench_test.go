package campaign

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// benchRun executes a campaign configuration repeatedly. The REPRO_*
// knobs select the campaign: at the default paper scale this is the full
// 2500-server, 13-vantage plan; CI's smoke job sets REPRO_SCALE=small.
func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dataset.Traces) == 0 {
			b.Fatal("empty campaign")
		}
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
			cfg, err := FromEnv()
			if err != nil {
				b.Fatal(err)
			}
			cfg.Workers = workers
			benchRun(b, cfg)
		})
	}
}

// BenchmarkCampaignSlices holds the worker pool at GOMAXPROCS and varies
// sub-vantage slicing: with more shards than vantages the pool packs
// better (no long-tail shard pins a worker), at the price of more world
// instantiations — which the shared blueprint keeps cheap.
func BenchmarkCampaignSlices(b *testing.B) {
	for _, slices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("slices=%d", slices), func(b *testing.B) {
			cfg, err := FromEnv()
			if err != nil {
				b.Fatal(err)
			}
			cfg.SlicesPerVantage = slices
			benchRun(b, cfg)
		})
	}
}

// BenchmarkShardBuild isolates the per-shard fixed cost a campaign pays
// for every (vantage, slice) shard: instantiating a world into a fresh
// simulator from the compiled blueprint. Before shared worlds this was
// a full generation plus an all-pairs route computation per shard;
// scripts/perf_gate.sh keeps it collapsed.
func BenchmarkShardBuild(b *testing.B) {
	cfg, err := FromEnv()
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkWorldReset is what a shard costs an executor that already
// holds a world: a paper-scale world that has just run one full trace,
// Reset (the trace runs off the clock). It must report 0 allocs/op —
// scripts/perf_gate.sh holds that line — because a reset that allocates
// is an instantiation in disguise; BenchmarkShardBuild above is the
// fresh-instantiate cost it replaces. Paper scale whatever REPRO_SCALE
// says: the contract is about the world the ledger's workloads run.
func BenchmarkWorldReset(b *testing.B) {
	cfg := Config{Scale: "paper", Seed: 2015}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		b.Fatal(err)
	}
	sim := netsim.NewSim(cfg.Seed)
	w, err := bp.Instantiate(sim)
	if err != nil {
		b.Fatal(err)
	}
	v, servers := w.Vantages[0], w.ServerAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.Reseed(TraceSeed(cfg.Seed, 0, i))
		w.ApplyTraceConditions(v, topology.Batch1, sim.RNG())
		done := false
		core.RunTrace(v, servers, topology.Batch1, i, func(dataset.Trace) { done = true })
		sim.Run()
		if !done {
			b.Fatal("trace did not complete")
		}
		b.StartTimer()
		w.Reset()
	}
}

// BenchmarkWorldCompile is the campaign's one-time fixed cost: full
// world generation plus routing, paid once per Run however many shards
// fan out from it.
func BenchmarkWorldCompile(b *testing.B) {
	cfg, err := FromEnv()
	if err != nil {
		b.Fatal(err)
	}
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
// that metric and fails above PERF_GATE_MAX_TELEMETRY_PCT (default
// 2%): the budget that keeps the flight recorder always-on in the
// control plane. ns/op covers both runs of the pair.
//
// Declared last on purpose: it runs many extra campaigns, and keeping
// it after the benchmarks that perf_gate compares against the base ref
// preserves identical in-process run order between the two trees.
func BenchmarkCampaignTelemetry(b *testing.B) {
	plain, err := FromEnv()
	if err != nil {
		b.Fatal(err)
	}
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
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dataset.Traces) == 0 {
			b.Fatal("empty campaign")
		}
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
