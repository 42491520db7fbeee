package middlebox

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/iptable"
	"repro/internal/netsim"
	"repro/internal/packet"
)

var (
	mbSrc = packet.MustParseAddr("192.0.2.1")
	mbDst = packet.MustParseAddr("198.51.100.1")
)

func udpWire(t *testing.T, cp ecn.Codepoint) []byte {
	t.Helper()
	wire, err := packet.BuildUDP(mbSrc, mbDst, 1000, 123, 64, cp, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func tcpWire(t *testing.T, cp ecn.Codepoint) []byte {
	t.Helper()
	hdr := &packet.TCPHeader{SrcPort: 1000, DstPort: 80, Flags: packet.TCPSyn}
	wire, err := packet.AppendTCP(nil, mbSrc, mbDst, hdr, 64, cp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestECNBleacherAlways(t *testing.T) {
	b := &ECNBleacher{Probability: 1}
	wire := udpWire(t, ecn.ECT0)
	if v := b.Apply(nil, wire); v != netsim.Pass {
		t.Fatal("bleacher must pass packets")
	}
	cp, _ := packet.WireECN(wire)
	if cp != ecn.NotECT {
		t.Errorf("ECN after bleach = %v", cp)
	}
	if _, _, err := packet.ParseIPv4(wire); err != nil {
		t.Errorf("checksum broken after bleach: %v", err)
	}
	if b.Bleached != 1 {
		t.Errorf("Bleached = %d", b.Bleached)
	}
}

func TestECNBleacherIgnoresNotECT(t *testing.T) {
	b := &ECNBleacher{Probability: 1}
	wire := udpWire(t, ecn.NotECT)
	before := append([]byte(nil), wire...)
	b.Apply(nil, wire)
	for i := range wire {
		if wire[i] != before[i] {
			t.Fatal("bleacher modified a not-ECT packet")
		}
	}
	if b.Bleached != 0 {
		t.Error("counted a bleach that did not happen")
	}
}

func TestECNBleacherBleachesCE(t *testing.T) {
	b := &ECNBleacher{Probability: 1}
	wire := udpWire(t, ecn.CE)
	b.Apply(nil, wire)
	cp, _ := packet.WireECN(wire)
	if cp != ecn.NotECT {
		t.Errorf("CE survived bleaching: %v", cp)
	}
}

func TestECNBleacherProbabilistic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := &ECNBleacher{Probability: 0.3, RNG: rng}
	n := 5000
	for i := 0; i < n; i++ {
		b.Apply(nil, udpWire(t, ecn.ECT0))
	}
	got := float64(b.Bleached) / float64(n)
	if got < 0.25 || got > 0.35 {
		t.Errorf("bleach rate = %.3f, want ~0.30", got)
	}
}

func TestECNBleacherNoRNGNeverFires(t *testing.T) {
	b := &ECNBleacher{Probability: 0.5} // nil RNG
	wire := udpWire(t, ecn.ECT0)
	b.Apply(nil, wire)
	cp, _ := packet.WireECN(wire)
	if cp != ecn.ECT0 {
		t.Error("probabilistic bleacher without RNG must not fire")
	}
}

func TestECTUDPDropper(t *testing.T) {
	d := &ECTUDPDropper{}
	cases := []struct {
		wire []byte
		want netsim.Verdict
	}{
		{udpWire(t, ecn.ECT0), netsim.Drop},
		{udpWire(t, ecn.ECT1), netsim.Drop},
		{udpWire(t, ecn.CE), netsim.Drop},
		{udpWire(t, ecn.NotECT), netsim.Pass},
		{tcpWire(t, ecn.ECT0), netsim.Pass}, // TCP always passes
		{tcpWire(t, ecn.NotECT), netsim.Pass},
	}
	for i, c := range cases {
		if got := d.Apply(nil, c.wire); got != c.want {
			t.Errorf("case %d: verdict = %v, want %v", i, got, c.want)
		}
	}
	if d.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", d.Dropped)
	}
}

func TestNotECTUDPDropper(t *testing.T) {
	d := &NotECTUDPDropper{}
	if d.Apply(nil, udpWire(t, ecn.NotECT)) != netsim.Drop {
		t.Error("not-ECT UDP should drop")
	}
	if d.Apply(nil, udpWire(t, ecn.ECT0)) != netsim.Pass {
		t.Error("ECT(0) UDP should pass")
	}
	if d.Apply(nil, tcpWire(t, ecn.NotECT)) != netsim.Pass {
		t.Error("TCP should pass")
	}
}

func TestECTAnyDropper(t *testing.T) {
	d := &ECTAnyDropper{}
	if d.Apply(nil, tcpWire(t, ecn.ECT0)) != netsim.Drop {
		t.Error("ECT TCP should drop under drop-ect-any")
	}
	if d.Apply(nil, udpWire(t, ecn.NotECT)) != netsim.Pass {
		t.Error("not-ECT should pass")
	}
}

func TestCEMarker(t *testing.T) {
	m := &CEMarker{Probability: 1}
	wire := udpWire(t, ecn.ECT0)
	m.Apply(nil, wire)
	cp, _ := packet.WireECN(wire)
	if cp != ecn.CE {
		t.Errorf("ECN = %v, want CE", cp)
	}
	// CE input is left alone (already marked).
	m2 := &CEMarker{Probability: 1}
	ceWire := udpWire(t, ecn.CE)
	m2.Apply(nil, ceWire)
	if m2.Marked != 0 {
		t.Error("re-marked an already-CE packet")
	}
	// not-ECT must never be marked (RFC 3168 forbids it).
	notECT := udpWire(t, ecn.NotECT)
	m.Apply(nil, notECT)
	cp, _ = packet.WireECN(notECT)
	if cp != ecn.NotECT {
		t.Error("marked a not-ECT packet")
	}
}

func TestScopedBySource(t *testing.T) {
	inner := &ECTUDPDropper{}
	scoped := &ScopedBySource{
		Prefixes: []iptable.Prefix{iptable.MustParsePrefix("192.0.2.0/24")},
		Inner:    inner,
	}
	// mbSrc is 192.0.2.1 — inside the scope: dropped.
	if scoped.Apply(nil, udpWire(t, ecn.ECT0)) != netsim.Drop {
		t.Error("in-scope source not dropped")
	}
	// Build a packet from an out-of-scope source.
	out, err := packet.BuildUDP(
		packet.MustParseAddr("203.0.113.1"), mbDst, 1000, 123, 64, ecn.ECT0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scoped.Apply(nil, out) != netsim.Pass {
		t.Error("out-of-scope source dropped")
	}
	if scoped.Name() == "" {
		t.Error("empty name")
	}
	scoped.Apply(nil, []byte{1}) // short wire must not panic
}

func TestScopedByDest(t *testing.T) {
	inner := &NotECTUDPDropper{}
	scoped := &ScopedByDest{
		Prefixes: []iptable.Prefix{iptable.MakePrefix(mbDst, 32)},
		Inner:    inner,
	}
	// Toward the protected host: inner policy applies.
	if scoped.Apply(nil, udpWire(t, ecn.NotECT)) != netsim.Drop {
		t.Error("inbound not-ECT UDP not dropped")
	}
	// Reply direction (source = protected host): must pass — this is
	// the asymmetry that keeps Figure 3b's servers alive via ECT(0).
	reply, err := packet.BuildUDP(mbDst, mbSrc, 123, 1000, 64, ecn.NotECT, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scoped.Apply(nil, reply) != netsim.Pass {
		t.Error("outbound reply dropped by site firewall")
	}
	if scoped.Name() == "" {
		t.Error("empty name")
	}
	scoped.Apply(nil, []byte{1}) // short wire must not panic
}

func TestPolicyNames(t *testing.T) {
	policies := []netsim.Policy{
		&ECNBleacher{}, &ECTUDPDropper{}, &NotECTUDPDropper{},
		&ECTAnyDropper{}, &CEMarker{},
	}
	seen := map[string]bool{}
	for _, p := range policies {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("policy name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

func TestShortWireSafe(t *testing.T) {
	short := []byte{0x45, 0x00}
	for _, p := range []netsim.Policy{
		&ECNBleacher{Probability: 1}, &ECTUDPDropper{},
		&NotECTUDPDropper{}, &ECTAnyDropper{}, &CEMarker{Probability: 1},
	} {
		p.Apply(nil, short) // must not panic
		p.Apply(nil, nil)
	}
}

// Integration: an ECT-UDP firewall one hop before the destination blocks
// ECT(0) NTP probes but passes not-ECT ones — the exact mechanism behind
// Figure 3a's spikes.
func TestFirewallBlocksECTUDPEndToEnd(t *testing.T) {
	sim := netsim.NewSim(3)
	n := netsim.NewNetwork(sim)
	r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 64500)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 64501)
	n.Connect(r1, r2, time.Millisecond, 0)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r1, time.Millisecond, 0)
	n.Attach(server, r2, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	r2.AddPolicy(&ECTUDPDropper{})

	var gotNotECT, gotECT bool
	server.BindUDP(123, func(h *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		if ip.ECN().IsECT() {
			gotECT = true
		} else {
			gotNotECT = true
		}
	})
	client.SendUDP(server.Addr(), 5000, 123, 64, ecn.NotECT, []byte("a"))
	client.SendUDP(server.Addr(), 5000, 123, 64, ecn.ECT0, []byte("b"))
	sim.Run()

	if !gotNotECT {
		t.Error("not-ECT probe blocked")
	}
	if gotECT {
		t.Error("ECT(0) probe passed the firewall")
	}
}
