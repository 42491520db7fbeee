package traceroute

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// When the destination host answers high-port UDP with ICMP port
// unreachable (not the pool default, but real traceroute targets often
// do), the trace terminates at the destination and reports it reached.
func TestReachedDestViaPortUnreachable(t *testing.T) {
	f := newChain(t, 8, 4)
	f.server.RespondPortUnreachable = true

	mux := NewMux(f.client)
	var got Result
	mux.Run(f.server.Addr(), Config{}, keep(&got))
	f.sim.Run()

	if !got.ReachedDest {
		t.Fatal("destination not detected despite port-unreachable")
	}
	hops := got.Hops()
	// 4 routers + the destination itself as the final answering hop.
	if len(hops) != 5 {
		t.Fatalf("hops = %d, want 5", len(hops))
	}
	last := hops[len(hops)-1]
	if !last.ReachedDest || last.Hop != f.server.Addr() {
		t.Errorf("final hop = %+v", last)
	}
	// The quotation from the destination still carries the ECN verdict.
	if last.Transition != ecn.Preserved {
		t.Errorf("destination quotation transition = %v", last.Transition)
	}
}

// A trace to an address with no route dies silently and terminates by
// the stop-after-silence rule.
func TestUnroutableTargetTerminates(t *testing.T) {
	f := newChain(t, 9, 3)
	mux := NewMux(f.client)
	var got Result
	mux.Run(packet.AddrFrom4(203, 0, 113, 99), Config{
		Timeout:         50 * time.Millisecond,
		StopAfterSilent: 2,
		ProbesPerHop:    1,
	}, keep(&got))
	f.sim.Run()
	if got.ReachedDest {
		t.Error("unroutable target reported reached")
	}
	// TTL=1 expires AT the first router, before any route lookup, so
	// hop 1 answers; deeper probes die at the no-route drop and stay
	// silent — exactly how a real traceroute to a blackholed prefix
	// looks.
	for _, o := range got.Observations {
		if o.TTL == 1 && !o.Responded {
			t.Error("first hop silent; TTL expiry precedes routing")
		}
		if o.TTL > 1 && o.Responded {
			t.Errorf("unexpected response beyond the blackhole: %+v", o)
		}
	}
}
