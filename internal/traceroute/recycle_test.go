package traceroute

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/middlebox"
	"repro/internal/packet"
)

// TestSessionsRecycled: a Mux that outlives its traces keeps finished
// sessions on a free list, so sequential traces run in one shell and —
// with its observation buffer, timeout callback and probe payload made
// once — a steady-state trace allocates nothing. Recycling must not leak
// one path's state into the next: every run yields the same rows.
func TestSessionsRecycled(t *testing.T) {
	f := newChain(t, 11, 6)
	mux := NewMux(f.client)
	var got Result
	done := keep(&got)
	mux.Run(f.server.Addr(), Config{}, done)
	f.sim.Run()
	first := got
	shell := mux.free
	if shell == nil || shell.next != nil {
		t.Fatal("after one trace the free list should hold exactly its session")
	}
	if len(mux.sessions) != 0 {
		t.Fatalf("%d sessions still registered after the trace", len(mux.sessions))
	}

	for i := 0; i < 3; i++ {
		mux.Run(f.server.Addr(), Config{}, done)
		if mux.free != nil {
			t.Fatal("the running trace did not take the free session")
		}
		f.sim.Run()
		if mux.free != shell || shell.next != nil {
			t.Fatal("the trace did not return the one session to the free list")
		}
		if got.ReachedDest != first.ReachedDest || len(got.Observations) != len(first.Observations) {
			t.Fatalf("run %d: %d observations, want %d", i, len(got.Observations), len(first.Observations))
		}
		for j, o := range got.Observations {
			want := first.Observations[j]
			want.RTT, o.RTT = 0, 0 // later runs start at a later clock; RTTs on this chain are equal anyway
			if o != want {
				t.Fatalf("run %d observation %d = %+v, want %+v", i, j, o, want)
			}
		}
	}

	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	completed := 0
	count := func(Result) { completed++ }
	allocs := testing.AllocsPerRun(20, func() {
		mux.Run(f.server.Addr(), Config{}, count)
		f.sim.Run()
	})
	if allocs != 0 || completed == 0 {
		t.Errorf("a trace on a warm Mux allocates %.1f times (completed %d), want 0", allocs, completed)
	}
}

// TestResultValidUntilDoneReturns states the ownership rule from the
// other side: the Observations a done callback receives are the
// session's buffer, and the next trace on the Mux reuses it. What a
// callback copied stays; the slice it was handed does not.
func TestResultValidUntilDoneReturns(t *testing.T) {
	f := newChain(t, 12, 4)
	f.routers[1].AddPolicy(&middlebox.ECNBleacher{Probability: 1})
	mux := NewMux(f.client)
	var lent []Observation
	var copied []Observation
	mux.Run(f.server.Addr(), Config{ProbesPerHop: 1}, func(r Result) {
		lent = r.Observations
		copied = slices.Clone(r.Observations)
	})
	f.sim.Run()
	if len(copied) == 0 || !slices.Equal(lent, copied) {
		t.Fatal("first trace recorded nothing")
	}
	// A different path (unroutable beyond hop 1) through the same session.
	mux.Run(packet.AddrFrom4(203, 0, 113, 9), Config{ProbesPerHop: 1, StopAfterSilent: 1}, func(Result) {})
	f.sim.Run()
	if slices.Equal(lent[:len(copied)], copied) {
		t.Error("the lent buffer still reads as the first trace; the second should have reused it")
	}
	if copied[1].Transition != ecn.Bleached {
		t.Errorf("the copy lost the first trace's rows: %+v", copied[1])
	}
}

// TestObservationOutlivesReceiveBuffer: the ICMP handler is given a
// quotation that aliases the receive buffer, which the host recycles as
// soon as the handler returns. An Observation is built from values read
// during the call, so rewriting that buffer afterwards — as the next
// packet through the pool will — cannot change what was recorded.
func TestObservationOutlivesReceiveBuffer(t *testing.T) {
	f := newChain(t, 13, 3)
	mux := NewMux(f.client)
	finished := false
	mux.Run(f.server.Addr(), Config{ProbesPerHop: 1}, func(Result) { finished = true })
	s := mux.sessions[f.server.Addr()]
	if s == nil {
		t.Fatal("no session in flight")
	}

	// The reply router 0 would send for the first probe, built by hand so
	// the test owns the buffer: the probe as it arrived there (TTL run
	// down to zero, ECN bleached on the way), quoted in a time-exceeded.
	probe, err := packet.BuildUDP(f.client.Addr(), f.server.Addr(), s.srcPort, s.dstPort(0), 1, ecn.NotECT, 1, s.payload[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packet.DecrementWireTTL(probe); err != nil {
		t.Fatal(err)
	}
	wire, err := packet.BuildICMP(f.routers[0].Addr(), f.client.Addr(), 64, 1, packet.NewTimeExceeded(probe))
	if err != nil {
		t.Fatal(err)
	}
	ip, body, err := packet.ParseIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := packet.ParseICMP(body)
	if err != nil {
		t.Fatal(err)
	}
	if &msg.Body[0] != &wire[packet.IPv4HeaderLen+packet.ICMPHeaderLen] {
		t.Fatal("the handler's message does not alias the receive buffer; this test would prove nothing")
	}
	mux.handle(f.client, ip, msg)
	if len(s.obs) != 1 {
		t.Fatalf("handler recorded %d observations, want 1", len(s.obs))
	}
	recorded := s.obs[0]
	if !recorded.Responded || recorded.Hop != f.routers[0].Addr() ||
		recorded.QuotedECN != ecn.NotECT || recorded.Transition != ecn.Bleached {
		t.Fatalf("recorded %+v", recorded)
	}

	for i := range wire {
		wire[i] = 0xFF
	}
	for i := range probe {
		probe[i] = 0xFF
	}
	if s.obs[0] != recorded {
		t.Errorf("rewriting the receive buffer changed the observation:\n got %+v\nwant %+v", s.obs[0], recorded)
	}
	f.sim.Run()
	if !finished {
		t.Error("trace did not complete after the hand-fed reply")
	}
}

// TestMuxResetDropsLiveSessions: Reset is what a world reset calls on a
// Mux whose simulator and host have just been rewound — sessions in
// flight are forgotten without their done callbacks running, and the
// Mux traces again from a clean table.
func TestMuxResetDropsLiveSessions(t *testing.T) {
	f := newChain(t, 14, 4)
	mux := NewMux(f.client)
	f.net.MarkBaseline() // the Mux is the client's baseline ICMP handler, as on a topology vantage
	var want Result
	mux.Run(f.server.Addr(), Config{}, keep(&want))
	f.sim.Run()

	mux.Run(f.server.Addr(), Config{}, func(Result) { t.Error("a session dropped by Reset completed") })
	f.sim.RunUntil(f.sim.Now() + 3*time.Millisecond) // mid-trace
	if len(mux.sessions) != 1 {
		t.Fatalf("%d sessions in flight, want 1", len(mux.sessions))
	}
	f.sim.Reset()
	f.net.Reset()
	mux.Reset()
	if len(mux.sessions) != 0 {
		t.Fatal("Reset left a session registered")
	}

	// The same target again: not "busy", and the same rows as before.
	var got Result
	mux.Run(f.server.Addr(), Config{}, keep(&got))
	f.sim.Run()
	if !slices.Equal(got.Observations, want.Observations) {
		t.Errorf("after Reset the trace recorded\n%+v\nwant\n%+v", got.Observations, want.Observations)
	}
}

// TestMuxResetRetiresSessions: Reset on its own — the simulator not
// rewound, so the dropped session's timeout still fires — leaves that
// session inert: it records nothing further, sends nothing further and
// never calls done, and it cannot unregister a newer session to the same
// target.
func TestMuxResetRetiresSessions(t *testing.T) {
	f := newChain(t, 15, 4)
	mux := NewMux(f.client)
	mux.Run(f.server.Addr(), Config{}, func(Result) { t.Error("a session dropped by Reset completed") })
	f.sim.RunUntil(3 * time.Millisecond)
	mux.Reset()

	var got Result
	sent := f.client.Sent
	mux.Run(f.server.Addr(), Config{}, keep(&got))
	f.sim.Run()
	if len(got.Hops()) != 4 {
		t.Errorf("the trace after Reset saw %d hops, want 4", len(got.Hops()))
	}
	// 4 responsive TTLs + 3 silent ones, 2 probes each, from the new session alone.
	if probes := f.client.Sent - sent; probes != 14 {
		t.Errorf("%d probes sent after Reset, want the new session's 14", probes)
	}
}

// TestNewMuxRefusesSecondInstall: a host has one ICMP handler, so a
// second Mux would take the first's messages and leave its probes to
// time out one by one. NewMux panics instead.
func TestNewMuxRefusesSecondInstall(t *testing.T) {
	f := newChain(t, 16, 2)
	NewMux(f.client)
	defer func() {
		if recover() == nil {
			t.Error("a second NewMux on the same host did not panic")
		}
	}()
	NewMux(f.client)
}
