package campaign

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
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
	return Config{
		Scale:      "small",
		Traces:     2,
		Stride:     12,
		Traceroute: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
		Seed:       2015,
	}
}

func runOrFatal(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
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

// TestFromEnv is table-driven over the REPRO_* knob surface: well-formed
// values land in the Config, malformed ones produce a descriptive error
// naming the offending variable instead of a silent default.
func TestFromEnv(t *testing.T) {
	allKnobs := []string{"REPRO_SCALE", "REPRO_SCENARIO", "REPRO_TRACES",
		"REPRO_STRIDE", "REPRO_SEED", "REPRO_WORKERS", "REPRO_SLICES"}
	cases := []struct {
		name    string
		env     map[string]string
		wantErr string // substring of the error; empty = success expected
		check   func(t *testing.T, cfg Config)
	}{
		{
			name: "defaults",
			check: func(t *testing.T, cfg Config) {
				// FromEnv derives the Config from the canonical Spec, so
				// defaults arrive explicit rather than as zero values.
				if cfg.Scale != "paper" || cfg.Scenario != ScenarioUncongested ||
					cfg.Traces != 6 || cfg.Stride != 3 || cfg.Seed != 2015 ||
					cfg.Workers != 0 || cfg.SlicesPerVantage != 1 ||
					cfg.Scheduler != netsim.SchedWheel || cfg.XTraffic != netsim.XTrafficLazy {
					t.Fatalf("defaults = %+v", cfg)
				}
			},
		},
		{
			name: "all set",
			env: map[string]string{"REPRO_SCALE": "small", "REPRO_TRACES": "4",
				"REPRO_STRIDE": "5", "REPRO_SEED": "-99", "REPRO_WORKERS": "3",
				"REPRO_SCENARIO": "congested-edge", "REPRO_SLICES": "4"},
			check: func(t *testing.T, cfg Config) {
				if cfg.Scale != "small" || cfg.Traces != 4 || cfg.Stride != 5 ||
					cfg.Seed != -99 || cfg.Workers != 3 || cfg.Scenario != "congested-edge" ||
					cfg.SlicesPerVantage != 4 {
					t.Fatalf("FromEnv = %+v", cfg)
				}
			},
		},
		{
			name: "paper trace plan sentinel",
			env:  map[string]string{"REPRO_TRACES": "paper"},
			check: func(t *testing.T, cfg Config) {
				if cfg.Traces != 0 {
					t.Fatalf("REPRO_TRACES=paper should select the paper plan, got Traces=%d", cfg.Traces)
				}
			},
		},
		{
			name: "uncongested scenario accepted",
			env:  map[string]string{"REPRO_SCENARIO": "uncongested"},
			check: func(t *testing.T, cfg Config) {
				if cfg.Scenario != "uncongested" {
					t.Fatalf("Scenario = %q", cfg.Scenario)
				}
			},
		},
		{name: "bad scale", env: map[string]string{"REPRO_SCALE": "medium"}, wantErr: "REPRO_SCALE"},
		{name: "bad scenario", env: map[string]string{"REPRO_SCENARIO": "congested"}, wantErr: "REPRO_SCENARIO"},
		{name: "traces typo", env: map[string]string{"REPRO_TRACES": "1O"}, wantErr: "REPRO_TRACES"},
		{name: "traces zero", env: map[string]string{"REPRO_TRACES": "0"}, wantErr: "REPRO_TRACES"},
		{name: "traces negative", env: map[string]string{"REPRO_TRACES": "-2"}, wantErr: "REPRO_TRACES"},
		{name: "seed not integer", env: map[string]string{"REPRO_SEED": "twenty"}, wantErr: "REPRO_SEED"},
		{name: "stride not integer", env: map[string]string{"REPRO_STRIDE": "3.5"}, wantErr: "REPRO_STRIDE"},
		{name: "stride negative", env: map[string]string{"REPRO_STRIDE": "-1"}, wantErr: "REPRO_STRIDE"},
		{name: "workers garbage", env: map[string]string{"REPRO_WORKERS": "all"}, wantErr: "REPRO_WORKERS"},
		{name: "workers negative", env: map[string]string{"REPRO_WORKERS": "-4"}, wantErr: "REPRO_WORKERS"},
		{name: "slices garbage", env: map[string]string{"REPRO_SLICES": "many"}, wantErr: "REPRO_SLICES"},
		{name: "slices negative", env: map[string]string{"REPRO_SLICES": "-1"}, wantErr: "REPRO_SLICES"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range allKnobs {
				t.Setenv(k, tc.env[k]) // unset knobs become ""
			}
			cfg, err := FromEnv()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error mentioning %q, got config %+v", tc.wantErr, cfg)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not name %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, cfg)
			}
		})
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
