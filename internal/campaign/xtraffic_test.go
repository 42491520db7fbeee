package campaign

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// TestXTrafficDifferential is the lazy catch-up replay's end-to-end
// gate: for every scenario, the event-per-phantom-boundary oracle run
// must produce the byte-identical merged dataset that the lazy drive
// produces across the whole workers × slices grid — the phantom
// boundaries replay through the identical AQM decision sequence and
// PRNG draw order whether or not they are scheduler events.
func TestXTrafficDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run differential test in -short mode")
	}
	for _, scenario := range Scenarios() {
		// The oracle: one event-driven run per scenario.
		cfg := testConfig()
		cfg.Scenario = scenario
		cfg.XTraffic = netsim.XTrafficEvents
		oracle := runOrFatal(t, cfg)
		ref := encode(t, oracle.Dataset)
		refObs := rowCount(oracle.PathObs)

		for _, workers := range []int{1, 4, 13} {
			for _, slices := range []int{1, 2, 8} {
				cfg := testConfig()
				cfg.Scenario = scenario
				cfg.XTraffic = netsim.XTrafficLazy
				cfg.Workers = workers
				cfg.SlicesPerVantage = slices
				res := runOrFatal(t, cfg)
				if !bytes.Equal(ref, encode(t, res.Dataset)) {
					t.Errorf("%s: lazy workers=%d slices=%d dataset differs from the events oracle",
						scenario, workers, slices)
				}
				if got := rowCount(res.PathObs); got != refObs {
					t.Errorf("%s: lazy workers=%d slices=%d: %d path observations, want %d",
						scenario, workers, slices, got, refObs)
				}
				if len(res.Congestion) != len(oracle.Congestion) {
					t.Fatalf("%s: lazy workers=%d slices=%d: %d congestion samples, want %d",
						scenario, workers, slices, len(res.Congestion), len(oracle.Congestion))
				}
				for i := range oracle.Congestion {
					if oracle.Congestion[i] != res.Congestion[i] {
						t.Errorf("%s: lazy workers=%d slices=%d: congestion sample %d differs:\n%+v\n%+v",
							scenario, workers, slices, i, oracle.Congestion[i], res.Congestion[i])
					}
				}
			}
		}
	}
}

// TestXTrafficEventAccounting pins the boundary bookkeeping both drives
// share: the events drive executes every phantom boundary as an event
// and replays none, the lazy drive replays every one of those same
// boundaries and schedules none — and the two counts are equal, packet
// for packet.
func TestXTrafficEventAccounting(t *testing.T) {
	run := func(xtraffic netsim.XTrafficMode) *Result {
		cfg := testConfig()
		cfg.Scenario = ScenarioCongestedEdge
		cfg.Stride = 0 // traceroute sweep adds nothing to this check
		cfg.XTraffic = xtraffic
		return runOrFatal(t, cfg)
	}
	events := run(netsim.XTrafficEvents)
	lazy := run(netsim.XTrafficLazy)
	if events.PhantomEvents == 0 {
		t.Fatal("events drive saw no phantom boundaries on a congested scenario")
	}
	if events.ReplayedBoundaries != 0 {
		t.Errorf("events drive replayed %d boundaries, want 0", events.ReplayedBoundaries)
	}
	if lazy.PhantomEvents != 0 {
		t.Errorf("lazy drive ran %d phantom boundary events, want 0", lazy.PhantomEvents)
	}
	if lazy.ReplayedBoundaries != events.PhantomEvents {
		t.Errorf("lazy drive replayed %d boundaries, events drive executed %d — the same boundaries must flow through both",
			lazy.ReplayedBoundaries, events.PhantomEvents)
	}
	if saved := events.Events - lazy.Events; saved != events.PhantomEvents {
		t.Errorf("lazy drive saved %d events, want exactly the %d phantom boundaries", saved, events.PhantomEvents)
	}
}
