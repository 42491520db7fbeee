package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// deliverUDP hands h a datagram for port straight off the wire, as its
// access link would.
func deliverUDP(t *testing.T, h *Host, port uint16) {
	t.Helper()
	b, err := packet.BuildUDPBuf(packet.AddrFrom4(10, 9, 9, 9), h.addr, 7, port, 64, ecn.NotECT, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	h.Receive(b, nil)
}

// tagged returns a UDP handler that records tag in *got.
func tagged(got *int, tag int) UDPHandler {
	return func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { *got = tag }
}

// TestBindUnbindRebind: a bound port delivers to its handler, an
// unbound one to nobody, and a port bound again to its new handler.
func TestBindUnbindRebind(t *testing.T) {
	n := NewNetwork(NewSim(1))
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	got := 0
	for _, port := range []uint16{123, 53, 9} {
		if _, err := h.BindUDP(port, tagged(&got, int(port))); err != nil {
			t.Fatal(err)
		}
	}
	h.UnbindUDP(53)
	h.UnbindUDP(53) // a second unbind is a no-op
	deliverUDP(t, h, 53)
	if got != 0 {
		t.Fatalf("an unbound port delivered to handler %d", got)
	}
	if _, err := h.BindUDP(53, tagged(&got, 1053)); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
	for port, want := range map[uint16]int{123: 123, 53: 1053, 9: 9} {
		got = 0
		deliverUDP(t, h, port)
		if got != want {
			t.Errorf("port %d delivered to handler %d, want %d", port, got, want)
		}
	}
}

// udpModel is the map-and-cursor socket table the binding slice
// replaced: the ports BindUDP(0) hands out must follow its sequence.
type udpModel struct {
	bound     map[uint16]bool
	ephemeral uint16
}

func (m *udpModel) bind(port uint16) (uint16, bool) {
	if port == 0 {
		for {
			m.ephemeral++
			if m.ephemeral < 49152 {
				m.ephemeral = 49152
			}
			if !m.bound[m.ephemeral] {
				port = m.ephemeral
				break
			}
		}
	}
	if m.bound[port] {
		return 0, false
	}
	m.bound[port] = true
	return port, true
}

// TestEphemeralPortSequence: with explicitly bound ports in the way,
// BindUDP(0) skips them and never goes back; a random run of binds and
// unbinds, the cursor's wrap past 65535 included, hands out exactly the
// ports the map-based table did.
func TestEphemeralPortSequence(t *testing.T) {
	n := NewNetwork(NewSim(1))
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	for _, p := range []uint16{49152, 49154} {
		if _, err := h.BindUDP(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var ports []uint16
	for i := 0; i < 3; i++ {
		p, err := h.BindUDP(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ports = append(ports, p)
	}
	h.UnbindUDP(49153)
	p, _ := h.BindUDP(0, nil)
	ports = append(ports, p)
	if want := []uint16{49153, 49155, 49156, 49157}; !slices.Equal(ports, want) {
		t.Fatalf("ephemeral ports %v, want %v", ports, want)
	}

	rng := rand.New(rand.NewSource(3))
	for _, start := range []uint16{0, 65500} {
		h, _ := n.AddHost(fmt.Sprintf("from-%d", start), packet.AddrFrom4(10, 0, 1, byte(start>>8)))
		m := &udpModel{bound: map[uint16]bool{}}
		h.ephemeral, m.ephemeral = start, start
		var held []uint16
		for i := 0; i < 3000; i++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(held) == 0:
				want, ok := m.bind(0)
				got, err := h.BindUDP(0, nil)
				if got != want || (err == nil) != ok {
					t.Fatalf("start %d, op %d: BindUDP(0) = %d, %v; map table %d, %v", start, i, got, err, want, ok)
				}
				held = append(held, got)
			case op < 7:
				// An explicit bind just ahead of the cursor, taken or not.
				port := m.ephemeral + uint16(rng.Intn(4))
				want, ok := m.bind(port)
				got, err := h.BindUDP(port, nil)
				if got != want || (err == nil) != ok {
					t.Fatalf("start %d, op %d: BindUDP(%d) = %d, %v; map table %d, %v", start, i, port, got, err, want, ok)
				}
				if ok {
					held = append(held, got)
				}
			default:
				j := rng.Intn(len(held))
				port := held[j]
				held = append(held[:j], held[j+1:]...)
				delete(m.bound, port)
				h.UnbindUDP(port)
			}
			if len(h.udp) != len(m.bound) {
				t.Fatalf("start %d, op %d: %d bindings, map table %d", start, i, len(h.udp), len(m.bound))
			}
		}
	}
}

// TestResetRestoresBaselineBindings: Reset brings back a baseline
// service a measurement unbound, drops every binding made since, and
// rewinds the ephemeral cursor — without allocating.
func TestResetRestoresBaselineBindings(t *testing.T) {
	n := NewNetwork(NewSim(1))
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	got := 0
	h.BindUDP(123, tagged(&got, 123))
	h.BindUDP(53, tagged(&got, 53))
	n.MarkBaseline()

	h.UnbindUDP(123)
	h.BindUDP(123, tagged(&got, 999))
	for i := 0; i < 70; i++ {
		if _, err := h.BindUDP(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, n.Reset); allocs != 0 {
		t.Errorf("Reset: %v allocs, want 0", allocs)
	}
	for _, port := range []uint16{123, 53} {
		got = 0
		deliverUDP(t, h, port)
		if got != int(port) {
			t.Errorf("after Reset, port %d delivered to handler %d, want the baseline's", port, got)
		}
	}
	if len(h.udp) != 2 {
		t.Errorf("after Reset: %d bindings, want the baseline's 2", len(h.udp))
	}
	if p, err := h.BindUDP(0, nil); err != nil || p != 49152 {
		t.Errorf("first ephemeral port after Reset = %d, %v; want 49152", p, err)
	}
}

// TestTCPHandler: TCP segments reach the one handler OnTCP installs;
// a datagram of a protocol the host does not speak is dropped.
func TestTCPHandler(t *testing.T) {
	n := NewNetwork(NewSim(1))
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	src := packet.AddrFrom4(10, 9, 9, 9)
	segments := 0
	h.OnTCP(func(_ *Host, ip packet.IPv4Header, _ []byte) {
		if ip.Protocol != packet.ProtoTCP {
			t.Errorf("TCP handler got protocol %d", ip.Protocol)
		}
		segments++
	})
	b, err := packet.BuildTCPBuf(src, h.addr, &packet.TCPHeader{SrcPort: 1, DstPort: 80, Flags: packet.TCPSyn}, 64, ecn.NotECT, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Receive(b, nil)
	gre := packet.IPv4Header{TTL: 64, Protocol: 47, Src: src, Dst: h.addr}
	wire, err := gre.Marshal(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	ob := packet.NewBuf()
	ob.Write(append(wire, "gre"...))
	h.Receive(ob, nil)
	if segments != 1 {
		t.Errorf("TCP handler ran %d times, want 1", segments)
	}
	if h.Received != 2 {
		t.Errorf("host received %d datagrams, want 2", h.Received)
	}
}
