package traceroute

import (
	"testing"
	"unsafe"

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
	hops := condense(&got)
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

// TestDeepConfigBoundedToTheTTLField: a ProbesPerHop past 255 is
// bounded to 255, so every probe's attempt index fits the byte its row
// records it in. (The TTL needs no run-time bound: maxTTL is a constant
// the compiler holds to a byte.)
func TestDeepConfigBoundedToTheTTLField(t *testing.T) {
	if c := (Config{ProbesPerHop: 1000}).withDefaults(); c.ProbesPerHop != 255 {
		t.Fatalf("withDefaults bounds ProbesPerHop 1000 to %d; want 255", c.ProbesPerHop)
	}
	f := newChain(t, 10, 3)
	mux := NewMux(f.client)
	var got Result
	mux.Run(packet.AddrFrom4(203, 0, 113, 99), Config{ProbesPerHop: 1000, StopAfterSilent: 1}, keep(&got))
	f.sim.Run()
	// Hop 1 answers all 255 probes; hop 2, past the blackhole, none.
	if len(got.Observations) != 2*255 {
		t.Fatalf("a ProbesPerHop of 1000 sent %d probes over two hops, want %d", len(got.Observations), 2*255)
	}
	for i, o := range got.Observations {
		if int(o.Attempt) != i%255 || int(o.TTL) != 1+i/255 {
			t.Fatalf("probe %d recorded TTL %d attempt %d; want TTL %d attempt %d", i, o.TTL, o.Attempt, 1+i/255, i%255)
		}
	}
}

// TestRowWidths pins the hop rows' sizes. A sweep writes one row per
// probe into its staging chunks, flattens them into the slab it hands
// out and the merge copies them again, so one added int costs 8 bytes
// per hop per copy: widen a field on purpose, and re-pin it here.
func TestRowWidths(t *testing.T) {
	if got := unsafe.Sizeof(Observation{}); got != 24 {
		t.Errorf("traceroute.Observation is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(PathObservation{}); got != 48 {
		t.Errorf("traceroute.PathObservation is %d bytes, want 48", got)
	}
}
