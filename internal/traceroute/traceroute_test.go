package traceroute

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// chainFixture builds client — r0 — r1 — ... — r(n-1) — server.
type chainFixture struct {
	sim     *netsim.Sim
	net     *netsim.Network
	client  *netsim.Host
	server  *netsim.Host
	routers []*netsim.Router
}

// condense folds a trace into one entry per TTL (first responding probe
// wins), up to the last responsive hop; a silent TTL's entry holds only
// its TTL.
func condense(r *Result) []Observation {
	var maxTTL uint8
	for _, o := range r.Observations {
		if o.Responded {
			maxTTL = max(maxTTL, o.TTL)
		}
	}
	out := make([]Observation, maxTTL)
	for i := range out {
		out[i].TTL = uint8(i + 1)
	}
	for _, o := range r.Observations {
		if o.Responded && o.TTL > 0 {
			if h := &out[o.TTL-1]; !h.Responded || o.Attempt < h.Attempt {
				*h = o
			}
		}
	}
	return out
}

func newChain(t *testing.T, seed int64, nRouters int) *chainFixture {
	t.Helper()
	sim := netsim.NewSim(seed)
	n := netsim.NewNetwork(sim)
	routers := make([]*netsim.Router, nRouters)
	for i := range routers {
		routers[i] = n.AddRouter("r", packet.AddrFrom4(10, 255, byte(i), 1), uint32(64500+i))
	}
	for i := 0; i+1 < nRouters; i++ {
		n.Connect(routers[i], routers[i+1], time.Millisecond, 0)
	}
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, routers[0], time.Millisecond, 0)
	n.Attach(server, routers[nRouters-1], time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return &chainFixture{sim: sim, net: n, client: client, server: server, routers: routers}
}

// keep returns a done callback that stores a copy of the Result: its
// Observations are the session's buffer, on loan only for the call.
func keep(dst *Result) func(Result) {
	return func(r Result) {
		r.Observations = slices.Clone(r.Observations)
		*dst = r
	}
}

func TestCleanPathAllPreserved(t *testing.T) {
	f := newChain(t, 1, 6)
	mux := NewMux(f.client)
	var got Result
	mux.Run(f.server.Addr(), Config{}, keep(&got))
	f.sim.Run()

	hops := condense(&got)
	if len(hops) != 6 {
		t.Fatalf("hops = %d, want 6", len(hops))
	}
	for i, h := range hops {
		if !h.Responded {
			t.Errorf("hop %d silent", i+1)
			continue
		}
		if h.Hop != f.routers[i].Addr() {
			t.Errorf("hop %d = %s, want %s", i+1, h.Hop, f.routers[i].Addr())
		}
		if h.Transition != ecn.Preserved {
			t.Errorf("hop %d transition = %v", i+1, h.Transition)
		}
		if h.QuotedECN != ecn.ECT0 {
			t.Errorf("hop %d quoted = %v", i+1, h.QuotedECN)
		}
	}
	if got.ReachedDest {
		t.Error("pool hosts must not answer high-port probes")
	}
}

func TestBleacherVisibleFromItsHopOnward(t *testing.T) {
	f := newChain(t, 2, 7)
	// Bleacher at router index 3 (hop 4).
	f.routers[3].AddPolicy(&middlebox.ECNBleacher{Probability: 1})
	mux := NewMux(f.client)
	var got Result
	mux.Run(f.server.Addr(), Config{}, keep(&got))
	f.sim.Run()

	hops := condense(&got)
	if len(hops) != 7 {
		t.Fatalf("hops = %d", len(hops))
	}
	for i, h := range hops {
		want := ecn.Preserved
		if i >= 3 { // the bleaching hop quotes the already-bleached header
			want = ecn.Bleached
		}
		if h.Transition != want {
			t.Errorf("hop %d transition = %v, want %v (runs of red after the strip)", i+1, h.Transition, want)
		}
	}
}

func TestSometimesBleacherMixedVerdicts(t *testing.T) {
	f := newChain(t, 3, 5)
	f.routers[2].AddPolicy(&middlebox.ECNBleacher{Probability: 0.5, RNG: f.sim.RNG()})
	mux := NewMux(f.client)

	bleached, preserved := 0, 0
	doneCount := 0
	var run func(i int)
	run = func(i int) {
		if i == 30 {
			return
		}
		mux.Run(f.server.Addr(), Config{ProbesPerHop: 1}, func(r Result) {
			doneCount++
			for _, o := range r.Observations {
				if o.TTL == 3 && o.Responded {
					switch o.Transition {
					case ecn.Bleached:
						bleached++
					case ecn.Preserved:
						preserved++
					}
				}
			}
			run(i + 1)
		})
	}
	run(0)
	f.sim.Run()
	if doneCount != 30 {
		t.Fatalf("completed %d traces", doneCount)
	}
	if bleached == 0 || preserved == 0 {
		t.Errorf("sometimes-bleacher gave bleached=%d preserved=%d; want both", bleached, preserved)
	}
}

func TestTraceStopsAfterSilence(t *testing.T) {
	f := newChain(t, 4, 4)
	// A policy that silently eats the probes beyond hop 2: use an
	// ECT-UDP dropper at router 2 (probes are ECT-marked UDP).
	f.routers[2].AddPolicy(&middlebox.ECTUDPDropper{})
	mux := NewMux(f.client)
	var got Result
	start := f.sim.Now()
	mux.Run(f.server.Addr(), Config{StopAfterSilent: 2}, keep(&got))
	f.sim.Run()

	hops := condense(&got)
	// Hops 1 and 2 respond (TTL expires before/at the dropper's router —
	// the dropper's own router sees TTL hit zero before policy? No:
	// policies run on ingress, so hop 3's probes die at router 2's
	// policy. Expect 2 responding hops.
	if len(hops) != 2 {
		t.Fatalf("responsive hops = %d, want 2", len(hops))
	}
	elapsed := f.sim.Now() - start
	// 2 TTLs responsive + 2 silent TTLs × 2 probes × probeTimeout ≈ 2s +
	// RTTs; probing on to maxTTL would take 28 silent TTLs.
	if elapsed > 20*probeTimeout {
		t.Errorf("trace took %v; stop-after-silence broken", elapsed)
	}
}

func TestObservationCountBookkeeping(t *testing.T) {
	f := newChain(t, 5, 3)
	mux := NewMux(f.client)
	var got Result
	mux.Run(f.server.Addr(), Config{ProbesPerHop: 3, StopAfterSilent: 1}, keep(&got))
	f.sim.Run()

	// 3 responsive TTLs ×3 probes + 1 silent TTL ×3 probes = 12.
	if len(got.Observations) != 12 {
		t.Fatalf("observations = %d, want 12", len(got.Observations))
	}
	responded := 0
	for _, o := range got.Observations {
		if o.Responded {
			responded++
			if o.RTT <= 0 {
				t.Error("responded observation with zero RTT")
			}
		}
	}
	if responded != 9 {
		t.Errorf("responded = %d, want 9", responded)
	}
}

func TestConcurrentSessions(t *testing.T) {
	// Two targets behind different branches; both traced in parallel on
	// one mux.
	sim := netsim.NewSim(6)
	n := netsim.NewNetwork(sim)
	root := n.AddRouter("root", packet.AddrFrom4(10, 255, 0, 1), 64500)
	left := n.AddRouter("left", packet.AddrFrom4(10, 255, 1, 1), 64501)
	right := n.AddRouter("right", packet.AddrFrom4(10, 255, 2, 1), 64502)
	n.Connect(root, left, time.Millisecond, 0)
	n.Connect(root, right, time.Millisecond, 0)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	s1, _ := n.AddHost("s1", packet.AddrFrom4(10, 0, 1, 1))
	s2, _ := n.AddHost("s2", packet.AddrFrom4(10, 0, 2, 1))
	n.Attach(client, root, time.Millisecond, 0)
	n.Attach(s1, left, time.Millisecond, 0)
	n.Attach(s2, right, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	// Bleach only the right branch.
	right.AddPolicy(&middlebox.ECNBleacher{Probability: 1})

	mux := NewMux(client)
	var r1, r2 Result
	mux.Run(s1.Addr(), Config{}, keep(&r1))
	mux.Run(s2.Addr(), Config{}, keep(&r2))
	sim.Run()

	h1, h2 := condense(&r1), condense(&r2)
	if len(h1) != 2 || len(h2) != 2 {
		t.Fatalf("hops = %d,%d want 2,2", len(h1), len(h2))
	}
	if h1[1].Transition != ecn.Preserved {
		t.Error("left branch should preserve")
	}
	if h2[1].Transition != ecn.Bleached {
		t.Error("right branch should bleach")
	}
}

// TestSixtyFourConcurrentSessions: one vantage traces 64 servers at
// once, as the sweep does, each session on its own source port. Every
// trace sees the whole chain, and every port is released at the end.
func TestSixtyFourConcurrentSessions(t *testing.T) {
	f := newChain(t, 8, 3)
	const sessions = 64
	var servers []*netsim.Host
	for i := 0; i < sessions; i++ {
		s, err := f.net.AddHost("s", packet.AddrFrom4(10, 0, 2, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		f.net.Attach(s, f.routers[2], time.Millisecond, 0)
		servers = append(servers, s)
	}
	if err := f.net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	srcPorts := map[uint16]bool{}
	f.client.AddTap(func(dir netsim.TapDirection, _ time.Duration, wire []byte) {
		ip, body, err := packet.ParseIPv4(wire)
		if err != nil || dir != netsim.TapOut || ip.Protocol != packet.ProtoUDP {
			return
		}
		if udp, _, err := packet.ParseUDP(body, ip.Src, ip.Dst); err == nil {
			srcPorts[udp.SrcPort] = true
		}
	})
	mux := NewMux(f.client)
	results := make([]Result, sessions)
	for i, s := range servers {
		mux.Run(s.Addr(), Config{}, keep(&results[i]))
	}
	f.sim.Run()
	if len(srcPorts) != sessions {
		t.Errorf("probes left from %d source ports, want %d", len(srcPorts), sessions)
	}
	for i := range results {
		hops := condense(&results[i])
		if len(hops) != 3 {
			t.Fatalf("session %d: %d hops, want 3", i, len(hops))
		}
		for j, h := range hops {
			if h.Hop != f.routers[j].Addr() {
				t.Errorf("session %d hop %d = %s, want %s", i, j+1, h.Hop, f.routers[j].Addr())
			}
		}
	}
	for p := range srcPorts {
		if _, err := f.client.BindUDP(p, nil); err != nil {
			t.Errorf("source port %d still bound after the sweep: %v", p, err)
		}
	}
}

func TestDuplicateTargetRejected(t *testing.T) {
	f := newChain(t, 7, 3)
	mux := NewMux(f.client)
	first := false
	mux.Run(f.server.Addr(), Config{}, func(r Result) { first = true })
	gotEmpty := false
	mux.Run(f.server.Addr(), Config{}, func(r Result) {
		gotEmpty = len(r.Observations) == 0
	})
	f.sim.Run()
	if !first {
		t.Error("first session never completed")
	}
	if !gotEmpty {
		t.Error("duplicate session not rejected with empty result")
	}
}
