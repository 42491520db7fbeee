package netsim

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// lineTopology builds H1 - R0 - R1 - ... - R(n-1) - H2 and returns the
// pieces. Each link has the given delay and zero loss.
func lineTopology(t testing.TB, sim *Sim, nRouters int, delay time.Duration) (*Network, *Host, *Host, []*Router) {
	t.Helper()
	n := NewNetwork(sim)
	routers := make([]*Router, nRouters)
	for i := range routers {
		routers[i] = n.AddRouter(
			"r"+string(rune('0'+i)),
			packet.AddrFrom4(10, 255, byte(i), 1), uint32(100+i))
	}
	for i := 0; i+1 < nRouters; i++ {
		n.Connect(routers[i], routers[i+1], delay, 0)
	}
	h1, err := n.AddHost("h1", packet.AddrFrom4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.AddHost("h2", packet.AddrFrom4(10, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(h1, routers[0], delay, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(h2, routers[nRouters-1], delay, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, h1, h2, routers
}

func TestEndToEndUDPDelivery(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 4, time.Millisecond)

	var got []byte
	var gotECN ecn.Codepoint
	h2.BindUDP(123, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		got = append([]byte(nil), payload...)
		gotECN = ip.ECN()
	})

	if err := h1.SendUDP(h2.Addr(), 5000, 123, 64, ecn.ECT0, []byte("ntp?")); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if string(got) != "ntp?" {
		t.Fatalf("payload = %q", got)
	}
	if gotECN != ecn.ECT0 {
		t.Errorf("ECN = %v, want ECT(0) end to end", gotECN)
	}
	// 4 routers + 2 access links = 5 link traversals at 1ms each.
	if sim.Now() != 5*time.Millisecond {
		t.Errorf("delivery time = %v, want 5ms", sim.Now())
	}
}

func TestReplyPath(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 3, time.Millisecond)

	h2.BindUDP(123, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		h.SendUDP(ip.Src, udp.DstPort, udp.SrcPort, 64, ecn.NotECT, []byte("pong"))
	})
	var reply string
	h1.BindUDP(5001, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		reply = string(payload)
	})
	h1.SendUDP(h2.Addr(), 5001, 123, 64, ecn.NotECT, []byte("ping"))
	sim.Run()
	if reply != "pong" {
		t.Errorf("reply = %q", reply)
	}
}

func TestTTLDecrementAcrossPath(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 5, 0)

	var ttl uint8
	h2.BindUDP(9, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		ttl = ip.TTL
	})
	h1.SendUDP(h2.Addr(), 1, 9, 64, ecn.NotECT, nil)
	sim.Run()
	if ttl != 64-5 {
		t.Errorf("arrived TTL = %d, want 59", ttl)
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, routers := lineTopology(t, sim, 5, time.Millisecond)

	var from packet.Addr
	var quoted packet.IPv4Header
	h1.OnICMP(func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage) {
		if msg.Type == packet.ICMPTimeExceeded {
			from = ip.Src
			quoted, _, _ = msg.Quotation()
		}
	})

	// TTL 3 expires at the third router.
	h1.SendUDP(h2.Addr(), 33434, 33434, 3, ecn.ECT0, []byte("probe"))
	sim.Run()

	if from != routers[2].Addr() {
		t.Errorf("time-exceeded from %s, want router 2 (%s)", from, routers[2].Addr())
	}
	if quoted.ECN() != ecn.ECT0 {
		t.Errorf("quoted ECN = %v, want ECT(0)", quoted.ECN())
	}
	if quoted.TTL != 0 {
		t.Errorf("quoted TTL = %d, want 0 at expiry", quoted.TTL)
	}
	if routers[2].TTLExpiries != 1 {
		t.Errorf("router 2 TTL expiries = %d", routers[2].TTLExpiries)
	}
}

func TestOfflineHostSilent(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 2, 0)

	responded := false
	h2.BindUDP(123, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		responded = true
	})
	h2.SetOnline(false)
	h1.SendUDP(h2.Addr(), 1, 123, 64, ecn.NotECT, nil)
	sim.Run()
	if responded {
		t.Error("offline host handled a packet")
	}
	if h2.Online() {
		t.Error("Online should report false")
	}
}

func TestPortUnreachableOptIn(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 2, 0)

	gotUnreach := 0
	h1.OnICMP(func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage) {
		if msg.Type == packet.ICMPDestUnreachable && msg.Code == packet.ICMPCodePortUnreach {
			gotUnreach++
		}
	})

	// Default: silent drop (the study's traceroutes stop one hop short).
	h1.SendUDP(h2.Addr(), 1, 33499, 64, ecn.NotECT, nil)
	sim.Run()
	if gotUnreach != 0 {
		t.Fatal("unexpected port unreachable with default config")
	}

	h2.RespondPortUnreachable = true
	h1.SendUDP(h2.Addr(), 1, 33499, 64, ecn.NotECT, nil)
	sim.Run()
	if gotUnreach != 1 {
		t.Errorf("port unreachable count = %d, want 1", gotUnreach)
	}
}

func TestLinkLossDropsDeterministically(t *testing.T) {
	sim := NewSim(12345)
	_, h1, h2, _ := lineTopology(t, sim, 2, 0)
	h1.Uplink().SetLoss(h1, 0.5)

	delivered := 0
	h2.BindUDP(7, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		delivered++
	})
	const total = 2000
	for i := 0; i < total; i++ {
		h1.SendUDP(h2.Addr(), 1, 7, 64, ecn.NotECT, nil)
	}
	sim.Run()
	if delivered < total/2-100 || delivered > total/2+100 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, total)
	}
	sent, dropped := h1.Uplink().Stats(h1)
	if sent != total {
		t.Errorf("sent = %d", sent)
	}
	if int(dropped) != total-delivered {
		t.Errorf("dropped = %d, delivered = %d", dropped, delivered)
	}
}

func TestTapSeesBothDirections(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 2, 0)

	var dirs []TapDirection
	h1.AddTap(func(dir TapDirection, at time.Duration, wire []byte) {
		dirs = append(dirs, dir)
	})
	h2.BindUDP(5, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		h.SendUDP(ip.Src, udp.DstPort, udp.SrcPort, 64, ecn.NotECT, nil)
	})
	h1.BindUDP(6, func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {})
	h1.SendUDP(h2.Addr(), 6, 5, 64, ecn.NotECT, nil)
	sim.Run()
	if len(dirs) != 2 || dirs[0] != TapOut || dirs[1] != TapIn {
		t.Errorf("tap directions = %v", dirs)
	}
}

func TestDuplicateHostAddressRejected(t *testing.T) {
	n := NewNetwork(NewSim(1))
	addr := packet.AddrFrom4(10, 0, 0, 1)
	if _, err := n.AddHost("a", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", addr); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	if _, err := n.Attach(h, r, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(h, r, 0, 0); err == nil {
		t.Error("double attach accepted")
	}
}

func TestBindUDPDuplicate(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	if _, err := h.BindUDP(123, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.BindUDP(123, nil); err == nil {
		t.Error("duplicate bind accepted")
	}
	h.UnbindUDP(123)
	if _, err := h.BindUDP(123, nil); err != nil {
		t.Errorf("rebind after unbind failed: %v", err)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		p, err := h.BindUDP(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p < 49152 {
			t.Fatalf("ephemeral port %d below dynamic range", p)
		}
		if seen[p] {
			t.Fatalf("port %d handed out twice", p)
		}
		seen[p] = true
	}
}

func TestPathRouters(t *testing.T) {
	sim := NewSim(1)
	n, h1, h2, routers := lineTopology(t, sim, 4, 0)
	path, err := n.PathRouters(h1, h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4", len(path))
	}
	for i, r := range path {
		if r != routers[i] {
			t.Errorf("hop %d = %s", i, r.Label())
		}
	}
}

func TestICMPReplyRoutesToHostBehindSameFabric(t *testing.T) {
	// Regression: ICMP from an interior router must route back to the
	// origin host even though the router is not adjacent to it.
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 6, time.Millisecond)
	count := 0
	h1.OnICMP(func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage) { count++ })
	for ttlv := 1; ttlv <= 5; ttlv++ {
		h1.SendUDP(h2.Addr(), 40000, 33434, uint8(ttlv), ecn.ECT0, nil)
	}
	sim.Run()
	if count != 5 {
		t.Errorf("got %d time-exceeded replies, want 5", count)
	}
}

func TestRouterAddressedPacketAbsorbed(t *testing.T) {
	sim := NewSim(1)
	_, h1, _, routers := lineTopology(t, sim, 3, 0)
	// Send to the middle router's own address: must be absorbed quietly.
	h1.SendUDP(routers[1].Addr(), 1, 2, 64, ecn.NotECT, nil)
	sim.Run()
	if routers[1].Forwarded != 0 {
		t.Error("router forwarded a packet addressed to itself")
	}
}

func TestNoRouteCounter(t *testing.T) {
	sim := NewSim(1)
	_, h1, _, routers := lineTopology(t, sim, 2, 0)
	h1.SendUDP(packet.AddrFrom4(203, 0, 113, 99), 1, 2, 64, ecn.NotECT, nil)
	sim.Run()
	if routers[0].NoRouteDrops != 1 {
		t.Errorf("NoRouteDrops = %d", routers[0].NoRouteDrops)
	}
}
