package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestWorldLinkDelays: the scheduler's pop scans every lane head, one
// lane per distinct link delay, and is cheap only while there are few.
// Both world scales must stay within eight, so a topology change that
// adds delays fails here rather than slowing every event.
func TestWorldLinkDelays(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topology.Config
	}{{"small", topology.SmallConfig()}, {"paper", topology.DefaultConfig()}} {
		bp, err := topology.Compile(tc.cfg, 2015)
		if err != nil {
			t.Fatal(err)
		}
		sim := netsim.NewSim(2015)
		if _, err := bp.Instantiate(sim); err != nil {
			t.Fatal(err)
		}
		if n := netsim.LaneCount(sim); n == 0 || n > 8 {
			t.Errorf("%s world: %d distinct link delays, want 1 to 8", tc.name, n)
		} else {
			t.Logf("%s world: %d distinct link delays", tc.name, n)
		}
	}
}
