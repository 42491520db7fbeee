package core_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// The ablations DESIGN.md §6 calibrates the world with, each paired with
// the same campaign on the unablated small world at fixed seeds.
var ablationSeeds = []int64{99, 7, 2015}

// TestAblationNoMiddleboxes removes every ECN middlebox: ECT(0)
// reachability then converges on not-ECT reachability, so the
// middlebox population is what opens Figure 2a's gap.
func TestAblationNoMiddleboxes(t *testing.T) {
	for _, seed := range ablationSeeds {
		fig2a := func(topo topology.Config) float64 {
			res := runSmall(t, campaign.Config{
				Topology:  &topo,
				TracePlan: map[string]int{"EC2 Ireland": 2},
				Seed:      seed,
			})
			return analysis.ComputeFigure2a(res.Dataset).Average
		}
		cfg := topology.SmallConfig()
		base := fig2a(cfg)
		cfg.ECTUDPFirewalledServers = 0
		cfg.NotECTFirewalledServers = 0
		cfg.SourceScopedNotECTServers = 0
		cfg.SourceScopedECTServers = 0
		cfg.BleachedBorderStubs = 0
		cfg.BleachedInteriorStubs = 0
		cfg.SometimesBleachedStubs = 0
		ablated := fig2a(cfg)
		t.Logf("seed %d: Figure 2a average %.2f%% without middleboxes, %.2f%% with", seed, ablated, base)
		if ablated <= base || ablated < 99.5 {
			t.Errorf("seed %d: Figure 2a average %.2f%% without middleboxes, want ≥ 99.5%% and above the baseline's %.2f%%",
				seed, ablated, base)
		}
	}
}

// TestAblationHeavyBleaching places 4× the bleaching stubs: Figure 4's
// preserved fraction responds to the bleachers' density.
func TestAblationHeavyBleaching(t *testing.T) {
	for _, seed := range ablationSeeds {
		preserved := func(topo topology.Config) float64 {
			// One trace carries the vantage's sweep: the engine runs it
			// from the slice that owns trace 0.
			res := runSmall(t, campaign.Config{
				Topology:   &topo,
				TracePlan:  map[string]int{"EC2 Tokyo": 1},
				Stride:     1,
				Traceroute: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
				Seed:       seed,
			})
			f4 := analysis.ComputeFigure4(res.PathObs, res.World.ASN)
			return 100 * float64(f4.PreservedObservations) / float64(f4.RespondedObservations)
		}
		cfg := topology.SmallConfig()
		base := preserved(cfg)
		cfg.BleachedBorderStubs *= 4
		cfg.BleachedInteriorStubs *= 4
		ablated := preserved(cfg)
		t.Logf("seed %d: Figure 4 preserved %.2f%% with 4× bleachers, %.2f%% without", seed, ablated, base)
		if ablated >= base {
			t.Errorf("seed %d: Figure 4 preserved %.2f%% with 4× bleachers, want below the baseline's %.2f%%",
				seed, ablated, base)
		}
	}
}
