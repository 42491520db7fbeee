package campaign

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// testConfig is a reduced sharded campaign: small world, two traces per
// vantage, a sparse traceroute sweep. Small enough to run three times in
// a unit test, large enough to cover every shard and both batches.
func testConfig() Config {
	return Config{Spec: Spec{
		Scale:  "small",
		Traces: 2,
		Stride: 12,
		Seed:   2015,
	}}
}

// engine is the simulator a test's worlds run on: a scheduler and a
// cross-traffic drive. The zero engine — delivery lanes, lazy replay — is
// the one netsim.NewSim makes and production runs; the binary heap and
// the event-per-phantom-boundary drive are the references it is held
// to.
type engine struct {
	sched netsim.Scheduler
	xt    netsim.XTrafficMode
}

// engines is every engine in the determinism grid's order: per
// cross-traffic drive, the lanes and then the heap.
var engines = []engine{
	{netsim.SchedLanes, netsim.XTrafficLazy},
	{netsim.SchedHeap, netsim.XTrafficLazy},
	{netsim.SchedLanes, netsim.XTrafficEvents},
	{netsim.SchedHeap, netsim.XTrafficEvents},
}

func (e engine) String() string { return e.sched.Name() + "/" + e.xt.Name() }

// compile compiles cfg's blueprint for worlds on e: production's own,
// or a copy whose worlds — spare included — run on the reference.
func (e engine) compile(t testing.TB, cfg Config) *topology.Blueprint {
	t.Helper()
	bp, err := cfg.CompileBlueprint()
	if err == nil && e != (engine{}) {
		bp, err = bp.WithSims(func(seed int64) *netsim.Sim {
			sim := netsim.NewSimSched(seed, e.sched)
			sim.SetXTrafficMode(e.xt)
			return sim
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// run is Run on engine e.
func (e engine) run(t testing.TB, cfg Config) *Result {
	t.Helper()
	res, err := run(cfg, e.compile(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runOrFatal(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOnTopology runs cfg's plan on worlds compiled from topo instead of
// cfg's scale and scenario — an ablated or re-tuned world no spec names.
func runOnTopology(t *testing.T, cfg Config, topo topology.Config) *Result {
	t.Helper()
	bp, err := topology.Compile(topo, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(cfg, bp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rowCount is the number of sweep rows across a Result's PathObs
// segments.
func rowCount(segs [][]traceroute.PathObservation) int {
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	return n
}

func encode(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunBasicShape(t *testing.T) {
	res := runOrFatal(t, testConfig())
	nv := len(topology.VantageNames())
	if got, want := len(res.Dataset.Traces), 2*nv; got != want {
		t.Fatalf("merged traces = %d, want %d", got, want)
	}
	if got, want := len(res.Shards), nv; got != want {
		t.Fatalf("shards = %d, want %d", got, want)
	}
	if len(res.PathObs) == 0 {
		t.Error("no traceroute observations")
	}
	if len(res.Servers) != len(res.World.Servers) {
		t.Errorf("servers = %d, want %d", len(res.Servers), len(res.World.Servers))
	}

	// Traces are in canonical vantage order with campaign-wide indices.
	for i, tr := range res.Dataset.Traces {
		if tr.Index != i {
			t.Fatalf("trace %d has index %d", i, tr.Index)
		}
		if want := topology.VantageNames()[i/2]; tr.Vantage != want {
			t.Fatalf("trace %d from %q, want %q", i, tr.Vantage, want)
		}
	}
	// Each shard ran both batches (Batch2Fraction default 0.5 of 2).
	for i := 0; i+1 < len(res.Dataset.Traces); i += 2 {
		if res.Dataset.Traces[i].Batch != 1 || res.Dataset.Traces[i+1].Batch != 2 {
			t.Fatalf("traces %d,%d batches = %d,%d, want 1,2",
				i, i+1, res.Dataset.Traces[i].Batch, res.Dataset.Traces[i+1].Batch)
		}
	}
	// Per-shard accounting is coherent with the merge.
	var events uint64
	for _, s := range res.Shards {
		if s.Traces != 2 {
			t.Errorf("shard %d (%s) ran %d traces, want 2", s.Shard, s.Vantage, s.Traces)
		}
		events += s.Events
	}
	if events != res.Events {
		t.Errorf("events sum %d != total %d", events, res.Events)
	}
}

// TestIdenticalWorldsAcrossShards checks the engine's core invariant:
// every shard observes the same generated Internet, so ground truth
// (middlebox placement, server roles) is vantage-independent.
func TestIdenticalWorldsAcrossShards(t *testing.T) {
	cfg := testConfig()
	var mu sync.Mutex
	worlds := map[int]*topology.World{}
	cfg.ShardHook = func(shard int, vantage string, w *topology.World) {
		mu.Lock()
		worlds[shard] = w
		mu.Unlock()
	}
	runOrFatal(t, cfg)

	ref := worlds[0]
	if ref == nil {
		t.Fatal("shard 0 missing")
	}
	for shard, w := range worlds {
		if len(w.Servers) != len(ref.Servers) {
			t.Fatalf("shard %d has %d servers, ref has %d", shard, len(w.Servers), len(ref.Servers))
		}
		for i, s := range w.Servers {
			r := ref.Servers[i]
			if s.Addr != r.Addr || s.ECTUDPFirewalled != r.ECTUDPFirewalled ||
				s.NotECTFirewalled != r.NotECTFirewalled || s.Flaky != r.Flaky ||
				s.Web != r.Web || s.WebECN != r.WebECN || s.BrokenECE != r.BrokenECE {
				t.Fatalf("shard %d server %d ground truth diverges from shard 0", shard, i)
			}
		}
	}
}

// TestOnlyFirstWorldRetained: a campaign holds one world per pool
// goroutine (one of them the world compiling built, adopted) and resets
// it between shards, so however many shards
// the plan has the ShardHook sees at most Workers distinct worlds; and
// once Run returns the engine holds on to exactly one of them —
// Result.World, the world that ran the first shard. The others (with
// their simulator slabs and connection free lists) are garbage: no
// result pins a world for the merge.
func TestOnlyFirstWorldRetained(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Stride = 0
			cfg.SlicesPerVantage = 2
			cfg.Workers = workers
			var mu sync.Mutex
			worlds := map[weak.Pointer[topology.World]]int{}
			cfg.ShardHook = func(shard int, vantage string, w *topology.World) {
				mu.Lock()
				worlds[weak.Make(w)]++
				mu.Unlock()
			}
			res := runOrFatal(t, cfg)
			if len(worlds) == 0 || len(worlds) > workers {
				t.Fatalf("hook saw %d distinct worlds over %d shards, want 1..%d", len(worlds), len(res.Shards), workers)
			}
			if workers == 1 && worlds[weak.Make(res.World)] != len(res.Shards) {
				t.Errorf("one worker ran %d of %d shards on Result.World", worlds[weak.Make(res.World)], len(res.Shards))
			}
			runtime.GC()
			for wp := range worlds {
				if w := wp.Value(); w != nil && w != res.World {
					t.Error("a world other than Result.World is reachable after Run")
				}
			}
			if _, ok := worlds[weak.Make(res.World)]; !ok {
				t.Error("Result.World ran no shard")
			}
		})
	}
}

// TestShardSeedsPairwiseDistinct checks the splitmix derivation: every
// (vantage, slice) shard seed, (vantage, trace) trace seed and sweep
// seed of one campaign is pairwise distinct, and none equals the raw
// campaign seed used for world generation.
func TestShardSeedsPairwiseDistinct(t *testing.T) {
	for _, campaignSeed := range []int64{0, 1, 2015, -7, 1 << 40} {
		seen := map[int64]string{}
		check := func(s int64, label string) {
			t.Helper()
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed %d: %s and %s share seed %d", campaignSeed, prev, label, s)
			}
			if s == campaignSeed {
				t.Fatalf("seed %d: %s equals the campaign seed", campaignSeed, label)
			}
			seen[s] = label
		}
		for vantage := 0; vantage < 13; vantage++ {
			for slice := 0; slice < 32; slice++ {
				check(ShardSeed(campaignSeed, vantage, slice), fmt.Sprintf("shard(%d,%d)", vantage, slice))
			}
			for k := 0; k < 32; k++ {
				check(TraceSeed(campaignSeed, vantage, k), fmt.Sprintf("trace(%d,%d)", vantage, k))
			}
			check(sweepSeed(campaignSeed, vantage), fmt.Sprintf("sweep(%d)", vantage))
		}
	}
}

func TestSameSeedReproduces(t *testing.T) {
	a := runOrFatal(t, testConfig())
	b := runOrFatal(t, testConfig())
	if !bytes.Equal(encode(t, a.Dataset), encode(t, b.Dataset)) {
		t.Error("same seed produced different datasets")
	}
	cfg := testConfig()
	cfg.Seed = 7
	c := runOrFatal(t, cfg)
	if bytes.Equal(encode(t, a.Dataset), encode(t, c.Dataset)) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestEmptyPlanErrors(t *testing.T) {
	cfg := testConfig()
	cfg.TracePlan = map[string]int{"no such vantage": 3}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for a plan selecting no vantages")
	}
}

func TestPartialPlanKeepsVantageSeeds(t *testing.T) {
	// A vantage's shard seed is tied to its fixed Table 2 index, so
	// running a subset of the plan must not change any vantage's stream.
	full := runOrFatal(t, testConfig())

	cfg := testConfig()
	tokyo := "EC2 Tokyo"
	cfg.TracePlan = map[string]int{tokyo: 2}
	solo := runOrFatal(t, cfg)

	var fullTokyo []dataset.Trace
	for _, tr := range full.Dataset.Traces {
		if tr.Vantage == tokyo {
			fullTokyo = append(fullTokyo, tr)
		}
	}
	if len(fullTokyo) != 2 || len(solo.Dataset.Traces) != 2 {
		t.Fatalf("trace counts: full=%d solo=%d", len(fullTokyo), len(solo.Dataset.Traces))
	}
	for i := range fullTokyo {
		a, b := fullTokyo[i], solo.Dataset.Traces[i]
		// Indices are campaign-wide and differ; everything else matches.
		a.Index, b.Index = 0, 0
		av, bv := encode(t, &dataset.Dataset{Traces: []dataset.Trace{a}}), encode(t, &dataset.Dataset{Traces: []dataset.Trace{b}})
		if !bytes.Equal(av, bv) {
			t.Fatalf("Tokyo trace %d differs between full and solo plans", i)
		}
	}
}

func TestBatch2FractionKnob(t *testing.T) {
	cfg := testConfig()
	cfg.Batch2Fraction = 1.0
	res := runOrFatal(t, cfg)
	for i, tr := range res.Dataset.Traces {
		if tr.Batch != 2 {
			t.Fatalf("trace %d batch = %d, want 2 with Batch2Fraction=1", i, tr.Batch)
		}
	}
}

func TestUnknownScaleErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}
