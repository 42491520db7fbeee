package netsim_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestWorldRoutesMatchReference: on both world scales of every
// scenario, the route table ComputeRoutes builds while compiling equals
// the whole-graph BFS's byte for byte.
func TestWorldRoutesMatchReference(t *testing.T) {
	for _, scale := range []struct {
		name string
		cfg  func() topology.Config
	}{{"small", topology.SmallConfig}, {"paper", topology.DefaultConfig}} {
		for _, scenario := range campaign.Scenarios() {
			cfg := scale.cfg()
			if err := campaign.ApplyScenario(&cfg, scenario); err != nil {
				t.Fatal(err)
			}
			bp, err := topology.Compile(cfg, 2015)
			if err != nil {
				t.Fatal(err)
			}
			if err := netsim.RoutesMismatch(bp.TakeSpare(2015).Net); err != nil {
				t.Errorf("%s %s world: %v", scale.name, scenario, err)
			}
		}
	}
}
