package ntp

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// probeFixture wires client — r1 — r2 — server with an NTP server bound.
type probeFixture struct {
	sim            *netsim.Sim
	net            *netsim.Network
	client, server *netsim.Host
	r1, r2         *netsim.Router
	ntpd           *Server
}

func newProbeFixture(t *testing.T, seed int64) *probeFixture {
	t.Helper()
	sim := netsim.NewSim(seed)
	n := netsim.NewNetwork(sim)
	r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 64500)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 64501)
	n.Connect(r1, r2, 5*time.Millisecond, 0)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r1, time.Millisecond, 0)
	n.Attach(server, r2, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0x0A000101)
	if err := srv.AttachSim(server); err != nil {
		t.Fatal(err)
	}
	return &probeFixture{sim: sim, net: n, client: client, server: server, r1: r1, r2: r2, ntpd: srv}
}

func TestProbeReachable(t *testing.T) {
	f := newProbeFixture(t, 1)
	var got ProbeResult
	Probe(f.client, f.server.Addr(), ecn.ECT0, func(r ProbeResult) { got = r })
	f.sim.Run()

	if !got.Reachable {
		t.Fatal("server unreachable on clean path")
	}
	if got.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", got.Attempts)
	}
	// RTT = 2 × (1ms + 5ms + 1ms) = 14ms.
	if got.RTT != 14*time.Millisecond {
		t.Errorf("RTT = %v, want 14ms", got.RTT)
	}
	if got.ResponseECN != ecn.NotECT {
		t.Errorf("response ECN = %v; NTP servers reply not-ECT", got.ResponseECN)
	}
	if got.Response.Stratum != 2 {
		t.Errorf("response stratum = %d", got.Response.Stratum)
	}
	if f.ntpd.Served != 1 {
		t.Errorf("server answered %d requests", f.ntpd.Served)
	}
}

func TestProbeOfflineServerUnreachable(t *testing.T) {
	f := newProbeFixture(t, 2)
	f.server.SetOnline(false)
	var got ProbeResult
	start := f.sim.Now()
	Probe(f.client, f.server.Addr(), ecn.NotECT, func(r ProbeResult) { got = r })
	f.sim.Run()

	if got.Reachable {
		t.Fatal("offline server reported reachable")
	}
	if got.Attempts != 1+DefaultRetransmissions {
		t.Errorf("attempts = %d, want %d", got.Attempts, 1+DefaultRetransmissions)
	}
	elapsed := f.sim.Now() - start
	want := time.Duration(1+DefaultRetransmissions) * DefaultTimeout
	if elapsed != want {
		t.Errorf("probe took %v, want %v", elapsed, want)
	}
}

func TestProbeRecoversAfterLoss(t *testing.T) {
	f := newProbeFixture(t, 3)
	// 70% loss on the client access link: some attempts die, but six
	// tries nearly always get through.
	f.client.Uplink().SetLossBoth(0.7)
	reached := 0
	const probes = 40
	doneCount := 0
	var launch func(i int)
	launch = func(i int) {
		if i == probes {
			return
		}
		Probe(f.client, f.server.Addr(), ecn.NotECT, func(r ProbeResult) {
			doneCount++
			if r.Reachable {
				reached++
			}
			launch(i + 1)
		})
	}
	launch(0)
	f.sim.Run()
	if doneCount != probes {
		t.Fatalf("completed %d probes, want %d", doneCount, probes)
	}
	// P(attempt succeeds) = 0.3^2 = 0.09 → P(all 6 fail) ≈ 0.57. Expect
	// roughly 40%±σ reachable; anything far outside signals broken retry.
	if reached < 8 || reached > 30 {
		t.Errorf("reached %d/40 under 70%% loss; retransmission logic suspect", reached)
	}
}

func TestProbeRetransmitTimestampsDistinct(t *testing.T) {
	// The server replies only to the *second* request (the first is
	// lost), and the probe must still match the response.
	f := newProbeFixture(t, 4)
	drop := true
	f.server.UnbindUDP(Port)
	f.server.BindUDP(Port, func(host *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		if drop {
			drop = false
			return
		}
		req, err := Parse(payload)
		if err != nil {
			t.Fatalf("server parse: %v", err)
		}
		now := TimestampFromSim(host.Sim().Now())
		resp, _ := Respond(req, 2, 0, now, now)
		host.SendUDP(ip.Src, udp.DstPort, udp.SrcPort, 64, ecn.NotECT, resp.Marshal(nil))
	})

	var got ProbeResult
	Probe(f.client, f.server.Addr(), ecn.NotECT, func(r ProbeResult) { got = r })
	f.sim.Run()
	if !got.Reachable {
		t.Fatal("response to retransmission not accepted")
	}
	if got.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", got.Attempts)
	}
}

func TestProbeIgnoresForgedResponse(t *testing.T) {
	f := newProbeFixture(t, 5)
	// A different host sprays forged server-mode packets at the client's
	// probable ephemeral ports. Origin timestamps won't match, so the
	// probe must ignore them and time out.
	forger, _ := f.net.AddHost("forger", packet.AddrFrom4(10, 0, 2, 2))
	f.net.Attach(forger, f.r1, time.Millisecond, 0)
	f.net.ComputeRoutes()
	f.server.SetOnline(false)

	var got ProbeResult
	Probe(f.client, f.server.Addr(), ecn.NotECT, func(r ProbeResult) { got = r })
	forgedPkt := Packet{Mode: ModeServer, Version: 4, OriginTS: 0xBAD}
	forged := forgedPkt.Marshal(nil)
	for p := uint16(49153); p < 49160; p++ {
		forger.SendUDP(f.client.Addr(), Port, p, 64, ecn.NotECT, forged)
	}
	f.sim.Run()
	if got.Reachable {
		t.Error("forged response accepted")
	}
}

func TestProbeECTBlockedByFirewall(t *testing.T) {
	f := newProbeFixture(t, 6)
	f.r2.AddPolicy(&middlebox.ECTUDPDropper{})

	var notECT, ect ProbeResult
	Probe(f.client, f.server.Addr(), ecn.NotECT, func(r ProbeResult) {
		notECT = r
		Probe(f.client, f.server.Addr(), ecn.ECT0, func(r2 ProbeResult) { ect = r2 })
	})
	f.sim.Run()

	if !notECT.Reachable {
		t.Error("not-ECT probe blocked")
	}
	if ect.Reachable {
		t.Error("ECT(0) probe passed an ECT-UDP firewall")
	}
}
