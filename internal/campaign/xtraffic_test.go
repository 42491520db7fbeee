package campaign

import (
	"testing"

	"repro/internal/netsim"
)

// TestXTrafficEventAccounting pins the boundary bookkeeping both drives
// share: the events drive executes every phantom boundary as an event
// and replays none, the lazy drive replays every one of those same
// boundaries and schedules none — and the two counts are equal, packet
// for packet.
func TestXTrafficEventAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	cfg.Stride = 0 // traceroute sweep adds nothing to this check
	events := engine{netsim.SchedLanes, netsim.XTrafficEvents}.run(t, cfg)
	lazy := runOrFatal(t, cfg)
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
