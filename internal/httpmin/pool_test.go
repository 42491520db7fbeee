package httpmin_test

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/httpmin"
	"repro/internal/netsim"
	"repro/internal/tcpsim"
	"repro/internal/topology"
)

// TestPoolHoldsPeakHTTPShells: after one small-scale shard, the probe
// and serve shells the world's one pool holds number no more than the
// connections the world ever had open at once — each shell drives one
// live connection, a probe's from its dial to its last callback, a
// serve's from accept to close. Shells kept per stack would leave one
// on every web server that was probed once, and fail here.
func TestPoolHoldsPeakHTTPShells(t *testing.T) {
	cfg := campaign.Config{Spec: campaign.Spec{Scale: "small", Traces: 2, Seed: 2015}}
	var w *topology.World
	peak := 0
	cfg.ShardHook = func(_ int, _ string, world *topology.World) {
		w = world
		// Every connection opens with a segment out of its stack's host
		// (a SYN or a SYN-ACK), so sampling at each departure sees the
		// peak.
		sample := func(dir netsim.TapDirection, _ time.Duration, _ []byte) {
			if dir != netsim.TapOut {
				return
			}
			open := 0
			for _, st := range stacks(world) {
				open += st.Conns()
			}
			peak = max(peak, open)
		}
		for _, st := range stacks(world) {
			st.Host().AddTap(sample)
		}
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ExecuteShard(cfg, bp, 0, 0); err != nil {
		t.Fatal(err)
	}
	gets, serves := httpmin.PoolShells(w.Vantages[0].Stack.Pool())
	if gets == 0 || serves == 0 {
		t.Fatalf("the shard ran no HTTP exchange (%d probe, %d serve shells)", gets, serves)
	}
	if gets+serves > peak {
		t.Errorf("the pool holds %d probe and %d serve shells; the world never had more than %d connections open", gets, serves, peak)
	}
	t.Logf("%d probe + %d serve shells, peak %d open connections", gets, serves, peak)
}

// stacks lists every TCP stack in the world: the vantages' and the web
// servers'.
func stacks(w *topology.World) []*tcpsim.Stack {
	var out []*tcpsim.Stack
	for _, v := range w.Vantages {
		out = append(out, v.Stack)
	}
	for _, s := range w.Servers {
		if s.Stack != nil {
			out = append(out, s.Stack)
		}
	}
	return out
}
