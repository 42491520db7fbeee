package netsim

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

func TestReplaceAttachment(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 1)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 2)
	fw := n.AddRouter("fw", packet.AddrFrom4(10, 255, 2, 1), 2)
	n.Connect(r1, r2, time.Millisecond, 0)
	n.Connect(r2, fw, time.Millisecond, 0)

	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r1, time.Millisecond, 0)
	n.Attach(server, r2, time.Millisecond, 0)

	// Move the server behind the firewall router before routing.
	if _, err := n.ReplaceAttachment(server, fw, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	// Path must now run through fw (3 routers instead of 2).
	path, err := n.PathRouters(client, server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[2] != fw {
		labels := make([]string, len(path))
		for i, r := range path {
			labels[i] = r.Label()
		}
		t.Fatalf("path = %v, want [r1 r2 fw]", labels)
	}

	// Delivery still works.
	got := false
	server.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { got = true })
	client.SendUDP(server.Addr(), 1, 7, 64, ecn.NotECT, nil)
	sim.Run()
	if !got {
		t.Error("no delivery after rehoming")
	}

	// The old attachment must be fully gone: r2 reaches the server
	// through fw, not over a stale access link.
	if l := egress(t, r2, server.Addr()); l == nil || l.Peer(r2) != Node(fw) {
		t.Error("stale host link on previous router")
	}
	if at := attachedAt(n, server.Addr()); at != fw {
		t.Errorf("attachment router = %v, want fw", at)
	}
}

func TestReplaceAttachmentUnattached(t *testing.T) {
	n := NewNetwork(NewSim(1))
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	if _, err := n.ReplaceAttachment(h, r, 0); err == nil {
		t.Error("rehoming an unattached host must fail")
	}
}

// TestReplaceAttachmentAfterRouting: removing an access link from the
// middle of the link list shifts every later link's index, so a
// rehoming after ComputeRoutes must leave the network unrouted rather
// than forwarding over whatever link now sits at a stale index, and
// routes computed again must deliver. A network whose routes a
// RouteTable shares cannot recompute them in place, so it refuses.
func TestReplaceAttachmentAfterRouting(t *testing.T) {
	build := func() (*Network, *Host, *Host, *Router) {
		sim := NewSim(1)
		n := NewNetwork(sim)
		r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 1)
		r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 2)
		r3 := n.AddRouter("r3", packet.AddrFrom4(10, 255, 2, 1), 3)
		client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
		server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
		n.Attach(client, r1, time.Millisecond, 0)
		n.Attach(server, r2, time.Millisecond, 0) // the link that leaves
		n.Connect(r1, r2, time.Millisecond, 0)
		n.Connect(r2, r3, time.Millisecond, 0)
		if err := n.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		return n, client, server, r3
	}

	n, client, server, r3 := build()
	if _, err := n.ReplaceAttachment(server, r3, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PathRouters(client, server.Addr()); err == nil {
		t.Fatal("routes survived a rehoming that shifted link indices")
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	path, err := n.PathRouters(client, server.Addr())
	if err != nil || len(path) != 3 || path[2] != r3 {
		t.Fatalf("path after recomputing = %v, %v; want r1 r2 r3", path, err)
	}
	got := 0
	server.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { got++ })
	client.SendUDP(server.Addr(), 1, 7, 64, ecn.NotECT, nil)
	n.Sim.Run()
	if got != 1 {
		t.Errorf("%d deliveries after rehoming, want 1", got)
	}

	exported, _, server, r3 := build()
	rt, err := exported.ExportRoutes()
	if err != nil {
		t.Fatal(err)
	}
	imported, _, importedServer, importedR3 := build()
	if err := imported.ImportRoutes(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := exported.ReplaceAttachment(server, r3, time.Millisecond); err == nil {
		t.Error("a network that exported its routes rehomed a host")
	}
	if _, err := imported.ReplaceAttachment(importedServer, importedR3, time.Millisecond); err == nil {
		t.Error("a network that imported its routes rehomed a host")
	}
}

func TestSetDelayAffectsLatency(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	a, _ := n.AddHost("a", packet.AddrFrom4(10, 0, 0, 1))
	b, _ := n.AddHost("b", packet.AddrFrom4(10, 0, 0, 2))
	la, _ := n.Attach(a, r, time.Millisecond, 0)
	n.Attach(b, r, time.Millisecond, 0)
	n.ComputeRoutes()

	// A delay is fixed when the link is built, and with it the
	// direction's delivery lane: change both.
	la.delay[la.dir(a)] = 50 * time.Millisecond
	la.lane[la.dir(a)] = sim.laneFor(50 * time.Millisecond)
	if la.delay[la.dir(a)] != 50*time.Millisecond {
		t.Fatalf("Delay = %v", la.delay[la.dir(a)])
	}
	var arrived time.Duration
	b.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { arrived = sim.Now() })
	a.SendUDP(b.Addr(), 1, 7, 64, ecn.NotECT, nil)
	sim.Run()
	if arrived != 51*time.Millisecond {
		t.Errorf("arrival at %v, want 51ms", arrived)
	}
}

func TestAsymmetricLoss(t *testing.T) {
	sim := NewSim(5)
	n := NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	a, _ := n.AddHost("a", packet.AddrFrom4(10, 0, 0, 1))
	b, _ := n.AddHost("b", packet.AddrFrom4(10, 0, 0, 2))
	la, _ := n.Attach(a, r, 0, 0)
	n.Attach(b, r, 0, 0)
	n.ComputeRoutes()

	// Loss only in the a→r direction; replies are clean.
	la.loss[la.dir(a)] = 1.0
	if la.Loss(a) != 1.0 || la.Loss(r) != 0 {
		t.Fatal("directional loss setters broken")
	}
	delivered := 0
	b.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { delivered++ })
	for i := 0; i < 10; i++ {
		a.SendUDP(b.Addr(), 1, 7, 64, ecn.NotECT, nil)
		b.SendUDP(a.Addr(), 7, 1, 64, ecn.NotECT, nil) // other direction unaffected
	}
	sim.Run()
	if delivered != 0 {
		t.Errorf("a→b delivered %d despite 100%% loss", delivered)
	}
	sent, dropped := la.Stats(a)
	if sent != 10 || dropped != 10 {
		t.Errorf("stats = %d/%d", sent, dropped)
	}
}

func TestPolicyDropCounter(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	a, _ := n.AddHost("a", packet.AddrFrom4(10, 0, 0, 1))
	b, _ := n.AddHost("b", packet.AddrFrom4(10, 0, 0, 2))
	n.Attach(a, r, 0, 0)
	n.Attach(b, r, 0, 0)
	n.ComputeRoutes()

	r.AddPolicy(dropAll{})
	a.SendUDP(b.Addr(), 1, 7, 64, ecn.NotECT, nil)
	a.SendUDP(b.Addr(), 1, 7, 64, ecn.NotECT, nil)
	sim.Run()
	if r.PolicyDrops != 2 {
		t.Errorf("PolicyDrops = %d", r.PolicyDrops)
	}
	if len(r.policies) != 1 {
		t.Errorf("policies = %d", len(r.policies))
	}
}

// dropAll is a test policy.
type dropAll struct{}

func (dropAll) Apply(*Router, []byte) Verdict { return Drop }
func (dropAll) Name() string                  { return "drop-all" }
func (dropAll) Reset()                        {}

func TestHostCounters(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 1)
	a, _ := n.AddHost("a", packet.AddrFrom4(10, 0, 0, 1))
	b, _ := n.AddHost("b", packet.AddrFrom4(10, 0, 0, 2))
	n.Attach(a, r, 0, 0)
	n.Attach(b, r, 0, 0)
	n.ComputeRoutes()
	b.BindUDP(7, func(h *Host, ip packet.IPv4Header, u packet.UDPHeader, p []byte) {
		h.SendUDP(ip.Src, u.DstPort, u.SrcPort, 64, ecn.NotECT, nil)
	})
	a.BindUDP(1, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) {})
	a.SendUDP(b.Addr(), 1, 7, 64, ecn.NotECT, nil)
	sim.Run()
	if a.Sent != 1 || a.Received != 1 {
		t.Errorf("host a counters: sent=%d received=%d", a.Sent, a.Received)
	}
	if b.Sent != 1 || b.Received != 1 {
		t.Errorf("host b counters: sent=%d received=%d", b.Sent, b.Received)
	}
}

func TestRouterForwardedCounter(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, routers := lineTopology(t, sim, 3, 0)
	h2.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) {})
	h1.SendUDP(h2.Addr(), 1, 7, 64, ecn.NotECT, nil)
	sim.Run()
	for i, r := range routers {
		if r.Forwarded != 1 {
			t.Errorf("router %d forwarded %d", i, r.Forwarded)
		}
	}
}
