package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestWorldRoutesMatchReference: on both world scales, the flat route
// table ComputeRoutes builds while compiling equals the per-row
// reference BFS entry for entry.
func TestWorldRoutesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topology.Config
	}{{"small", topology.SmallConfig()}, {"paper", topology.DefaultConfig()}} {
		bp, err := topology.Compile(tc.cfg, 2015)
		if err != nil {
			t.Fatal(err)
		}
		w := bp.TakeSpare(2015)
		if err := netsim.RoutesMismatch(w.Net); err != nil {
			t.Errorf("%s world: %v", tc.name, err)
		}
	}
}
