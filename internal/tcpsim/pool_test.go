package tcpsim_test

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/netsim"
	"repro/internal/tcpsim"
	"repro/internal/topology"
)

// TestPoolHoldsPeakShells: after one small-scale shard, the world's
// one shell pool holds no more connection shells than the world ever
// had connections open at once. A shell is made only when the pool is
// empty — every shell is then in a live connection — so a pool per
// stack, which strands a shell on every web server that was probed
// once, fails here by a wide margin.
func TestPoolHoldsPeakShells(t *testing.T) {
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
	pool := w.Vantages[0].Stack.Pool()
	for _, st := range stacks(w) {
		if st.Conns() != 0 {
			t.Fatalf("%d connections open after the shard drained", st.Conns())
		}
		if st.Pool() != pool {
			t.Fatal("two stacks of one world have separate shell pools")
		}
	}
	shells := tcpsim.PoolShells(pool)
	if peak == 0 || shells == 0 {
		t.Fatalf("the shard opened no connections (peak %d, %d shells)", peak, shells)
	}
	if shells > peak {
		t.Errorf("the pool holds %d connection shells; the world never had more than %d connections open", shells, peak)
	}
	t.Logf("%d shells, peak %d open connections", shells, peak)
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
