package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// sweepAllocCeiling is what one traceroute sweep may allocate on a world
// that has swept before: the exactly-sized row slab, plus slack for a
// socket-table or session-table bucket the runtime's maps regrow now and
// then as ports and targets churn through them. The traces themselves —
// sessions, probes, ICMP parses, observation buffers, row staging — are
// all recycled and account for none of it (the first sweep on the same
// small world allocates several hundred times).
const sweepAllocCeiling = 4

func sweepOnce(t *testing.T, w *topology.World, cfg TracerouteCampaignConfig) []PathObservation {
	t.Helper()
	var rows []PathObservation
	swept := false
	RunTracerouteCampaign(w, cfg, func(o []PathObservation) { rows, swept = o, true })
	w.Sim.Run()
	if !swept {
		t.Fatal("sweep did not complete")
	}
	return rows
}

// TestSweepWarmWorld: a sweep on a world that has swept before — reset
// in between, as the campaign executor does — produces the fresh world's
// rows, row for row, out of recycled parts: the same sweep shell, the
// vantages' long-lived muxes and their sessions. Its allocations are the
// row slab and O(1).
func TestSweepWarmWorld(t *testing.T) {
	cfg := TracerouteCampaignConfig{
		Vantages:     []string{"EC2 Ireland", "U. Glasgow wireless"},
		TargetStride: 3,
		Config:       traceroute.Config{ProbesPerHop: 2, StopAfterSilent: 2},
	}
	w := smallWorld(t, 7)
	fresh := sweepOnce(t, w, cfg)
	if len(fresh) == 0 {
		t.Fatal("no observations")
	}
	if cap(fresh) != len(fresh) {
		t.Errorf("row slab has cap %d for %d rows, want it exactly sized", cap(fresh), len(fresh))
	}
	shell, _ := w.UserData.(*sweep)
	if shell == nil || shell.rows != 0 || len(shell.chunks)*stagingChunk < len(fresh) {
		t.Fatalf("after a sweep the world should hold its shell with the staging buffer emptied, not %+v", shell)
	}
	if shell.w != nil || shell.done != nil {
		t.Error("the parked shell still references the finished sweep")
	}

	for round := 0; round < 2; round++ {
		w.Reset()
		warm := sweepOnce(t, w, cfg)
		if again, _ := w.UserData.(*sweep); again != shell {
			t.Fatal("the second sweep did not take and return the first one's shell")
		}
		if !slices.Equal(warm, fresh) {
			t.Fatalf("round %d: warm-world rows differ from the fresh world's (%s vs %s)",
				round, traceroute.HashRows(warm), traceroute.HashRows(fresh))
		}
		if &warm[0] == &fresh[0] {
			t.Fatal("two sweeps returned the same slab; each must be the caller's own")
		}
	}

	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	rows, swept := 0, false
	done := func(o []PathObservation) { rows, swept = len(o), true }
	// A collection inside the measured runs empties the wire buffers'
	// sync.Pool and the next sweep refills it, a cost of the heap's
	// state rather than of the sweep. Collecting first leaves the five
	// runs (≈ 0.5 MB) well under the next GC goal; AllocsPerRun's
	// warm-up run refills the pool.
	runtime.GC()
	allocs := testing.AllocsPerRun(5, func() {
		w.Reset()
		swept = false
		RunTracerouteCampaign(w, cfg, done)
		w.Sim.Run()
		if !swept || rows != len(fresh) {
			t.Fatalf("sweep returned %d rows (done=%v), want %d", rows, swept, len(fresh))
		}
	})
	if allocs > sweepAllocCeiling {
		t.Errorf("a sweep of %d rows on a warm world allocates %.0f times, want ≤ %d (the row slab plus O(1))",
			len(fresh), allocs, sweepAllocCeiling)
	}
	t.Logf("warm sweep: %d rows, %.0f allocs", len(fresh), allocs)
}

// TestSweepNoRows: RunTracerouteCampaignNoRows runs the sweep
// RunTracerouteCampaign runs — event for event, and the simulator's
// clock and PRNG end where they would — but stages nothing: its shell
// parks with no staging buffer grown.
func TestSweepNoRows(t *testing.T) {
	cfg := TracerouteCampaignConfig{
		Vantages:     []string{"EC2 Ireland", "U. Glasgow wireless"},
		TargetStride: 3,
		Config:       traceroute.Config{ProbesPerHop: 2, StopAfterSilent: 2},
	}
	kept := smallWorld(t, 7)
	if len(sweepOnce(t, kept, cfg)) == 0 {
		t.Fatal("no observations")
	}

	w := smallWorld(t, 7)
	swept := false
	RunTracerouteCampaignNoRows(w, cfg, func() { swept = true })
	w.Sim.Run()
	if !swept {
		t.Fatal("sweep did not complete")
	}
	if got, want := w.Sim.Executed(), kept.Sim.Executed(); got != want {
		t.Errorf("the rowless sweep executed %d events, the kept one %d", got, want)
	}
	if w.Sim.Now() != kept.Sim.Now() || w.Sim.RNG().Int63() != kept.Sim.RNG().Int63() {
		t.Error("the rowless sweep left the simulator's clock or PRNG elsewhere")
	}
	shell, _ := w.UserData.(*sweep)
	if shell == nil || shell.rows != 0 || len(shell.chunks) != 0 {
		t.Fatalf("a rowless sweep should park its shell with nothing staged, not %+v", shell)
	}
}

// TestSweepSelectsNothing: a vantage filter that matches nothing ends
// the sweep at once with an empty result, and leaves the shell parked.
func TestSweepSelectsNothing(t *testing.T) {
	w := smallWorld(t, 7)
	called := false
	RunTracerouteCampaign(w, TracerouteCampaignConfig{Vantages: []string{"nowhere"}}, func(o []PathObservation) {
		called = true
		if len(o) != 0 {
			t.Errorf("%d rows from no vantage", len(o))
		}
	})
	if !called {
		t.Fatal("done not called")
	}
	if _, ok := w.UserData.(*sweep); !ok {
		t.Error("shell not returned to the world")
	}
}

// TestSweepSecondVantageBuildsNoShell: a world's vantages share one
// pool of traceroute session shells (traceroute.Pool), so a vantage
// swept for the first time on a world that has swept another builds no
// session: its traceroutes run in the shells the first vantage's
// finished in. Each shell it built would cost at least two allocations —
// the session and its bound timeout callback — for each of the
// sweepParallelism traceroutes in flight; what such a sweep may allocate
// is its own vantage's session list and port bindings growing to that
// many entries, a handful of allocations. The count is read with the
// collector held off from a warm-up on another world (alloctest.Measure):
// a collection between the sweeps would empty the wire buffers'
// sync.Pool, and the second sweep would count their refill.
func TestSweepSecondVantageBuildsNoShell(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire buffers' sync.Pool drops Puts under the race detector")
	}
	first := TracerouteCampaignConfig{
		Vantages: []string{"EC2 Ireland"},
		Config:   traceroute.Config{ProbesPerHop: 2, StopAfterSilent: 2},
	}
	second := first
	second.Vantages = []string{"U. Glasgow wireless"}
	var w *topology.World
	r, _ := alloctest.Measure(1, func() {
		w = smallWorld(t, 7)
		if len(w.Servers) <= sweepParallelism {
			t.Fatalf("%d servers: too few to keep %d traceroutes in flight", len(w.Servers), sweepParallelism)
		}
		sweepOnce(t, w, first)
	}, func() {
		swept := false
		RunTracerouteCampaignNoRows(w, second, func() { swept = true })
		w.Sim.Run()
		if !swept {
			t.Fatal("sweep did not complete")
		}
	})
	if r.Allocs >= sweepParallelism {
		t.Errorf("sweeping a second vantage allocated %d times; %d shells would take ≥ %d, its own tables a handful",
			r.Allocs, sweepParallelism, 2*sweepParallelism)
	}
	t.Logf("second vantage's first sweep: %d allocs", r.Allocs)
}

// coldSweepCeiling bounds what the first traceroute sweep of a
// paper-scale world that has never swept allocates, rows apart
// (RunTracerouteCampaignNoRows, the campaign's per-path probing, every
// 3rd server from all 13 vantages): the reading, 304 KB, + 5 %. That
// is its session shells, each with an observation buffer sized once
// for a whole trace, each vantage's session list and port bindings
// grown once to sweepParallelism, and the simulator's event storage
// grown to the sweep's width. Session maps that rehash their way up
// under the churn of targets, with observation buffers that double
// their way up, read 416 KB and fail here.
const coldSweepCeiling = 319_500

// TestSweepColdWorld holds a cold world's first sweep to
// coldSweepCeiling.
func TestSweepColdWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire buffers' sync.Pool drops Puts under the race detector")
	}
	bp, err := topology.Compile(topology.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TracerouteCampaignConfig{TargetStride: 3, Config: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2}}
	var w *topology.World
	r, _ := alloctest.Measure(1, func() {
		if w, err = bp.Instantiate(bp.NewSim(7)); err != nil {
			t.Fatal(err)
		}
	}, func() {
		RunTracerouteCampaignNoRows(w, cfg, func() {})
		w.Sim.Run()
	})
	t.Logf("a cold paper world's first sweep: %d B, %d allocs (ceiling %d B)", r.Bytes, r.Allocs, coldSweepCeiling)
	if r.Bytes > coldSweepCeiling {
		t.Errorf("a cold paper world's first sweep allocated %d B, want ≤ %d", r.Bytes, coldSweepCeiling)
	}
}
