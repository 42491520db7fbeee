package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// Routers must drop corrupt packets without disturbing the simulation —
// the forwarding-plane behaviour of real hardware.
func TestRouterDropsCorruptPackets(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, routers := lineTopology(t, sim, 2, 0)
	delivered := 0
	h2.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { delivered++ })

	rng := rand.New(rand.NewSource(3))
	var validHeaders uint64 // per packet.ParseIPv4, the full-parse oracle
	for i := 0; i < 200; i++ {
		wire, _ := packet.BuildUDP(h1.Addr(), h2.Addr(), 1, 7, 64, ecn.NotECT, uint16(i), nil)
		// Corrupt a random byte in half the packets.
		if i%2 == 0 {
			wire[rng.Intn(len(wire))] ^= 0xFF
		}
		if _, _, err := packet.ParseIPv4(wire); err == nil {
			validHeaders++
		}
		h1.SendRaw(wire)
	}
	// Malformed in each way the header-peek forwarding path checks for.
	for _, corrupt := range []func(w []byte) []byte{
		func(w []byte) []byte { return w[:packet.IPv4HeaderLen-1] }, // truncated header
		func(w []byte) []byte { return w[:len(w)-1] },               // shorter than its total length
		func(w []byte) []byte { w[0] = 6<<4 | 5; return w },         // not version 4
		func(w []byte) []byte { w[0] = 4<<4 | 6; return w },         // IHL != 5
		func(w []byte) []byte { w[2], w[3] = 0, 19; return w },      // total length below the header's
		func(w []byte) []byte { w[11] ^= 0x01; return w },           // one checksum bit flipped
	} {
		wire, _ := packet.BuildUDP(h1.Addr(), h2.Addr(), 1, 7, 64, ecn.NotECT, 999, nil)
		h1.SendRaw(corrupt(wire))
	}
	sim.Run()
	// All intact packets arrive; corrupt ones die at the first router
	// (either checksum failure there or at the host). No panics, no
	// stuck events.
	if delivered < 90 || delivered > 110 {
		t.Errorf("delivered = %d of ~100 intact", delivered)
	}
	// A packet whose IP header the full parse rejects dies at the first
	// router without moving a counter; every other packet is forwarded
	// by both routers (payload corruption is the host's to catch).
	for i, r := range routers {
		if r.Forwarded != validHeaders {
			t.Errorf("router %d forwarded %d packets, want the %d with valid headers", i, r.Forwarded, validHeaders)
		}
		if r.PolicyDrops != 0 || r.TTLExpiries != 0 || r.NoRouteDrops != 0 {
			t.Errorf("router %d: PolicyDrops=%d TTLExpiries=%d NoRouteDrops=%d, want all 0",
				i, r.PolicyDrops, r.TTLExpiries, r.NoRouteDrops)
		}
	}
	if validHeaders == 0 || validHeaders == 200 {
		t.Fatalf("validHeaders = %d: the corruption loop is not exercising both outcomes", validHeaders)
	}
}

// A host silently ignores packets not addressed to it (the simulator
// has no promiscuous mode; taps still see the bytes).
func TestHostIgnoresMisdelivered(t *testing.T) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	h, _ := n.AddHost("h", packet.AddrFrom4(10, 0, 0, 1))
	handled := false
	h.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { handled = true })
	tapped := 0
	h.AddTap(func(TapDirection, time.Duration, []byte) { tapped++ })

	wire, _ := packet.BuildUDP(
		packet.AddrFrom4(10, 9, 9, 9), packet.AddrFrom4(10, 0, 0, 99), // not h's address
		1, 7, 64, ecn.NotECT, 1, nil)
	h.Receive(packet.AdoptBuf(wire), nil)
	sim.Run()
	if handled {
		t.Error("host handled a packet addressed elsewhere")
	}
	if tapped != 1 {
		t.Errorf("tap saw %d packets, want 1", tapped)
	}
}

// TTL-0 arrivals at a host are still delivered (TTL is checked by
// routers before forwarding; a packet that reaches its destination is
// consumed regardless).
func TestHostAcceptsFinalHopRegardlessOfTTL(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 2, 0)
	got := false
	h2.BindUDP(7, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { got = true })
	// TTL exactly the number of router hops: decremented to 0 at the
	// last router but forwarded (expiry only fires when it reaches 0
	// BEFORE forwarding, i.e. at the router that would make it negative).
	h1.SendUDP(h2.Addr(), 1, 7, 3, ecn.NotECT, nil)
	sim.Run()
	if !got {
		t.Error("packet with just-enough TTL not delivered")
	}
}

// recordPolicy notes each call and passes the packet.
type recordPolicy struct {
	name string
	log  *[]string
}

func (p recordPolicy) Apply(*Router, []byte) Verdict { *p.log = append(*p.log, p.name); return Pass }
func (recordPolicy) Name() string                    { return "record" }
func (recordPolicy) Reset()                          {}

// Policies run on ingress before the router validates anything, in
// attachment order — a middlebox sits in front of the forwarding plane,
// so it sees (and may drop or rewrite) even a datagram the router then
// discards as corrupt.
func TestPoliciesRunBeforeValidationInOrder(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, routers := lineTopology(t, sim, 2, 0)
	var log []string
	routers[0].AddPolicy(recordPolicy{"first", &log})
	routers[0].AddPolicy(recordPolicy{"second", &log})

	wire, _ := packet.BuildUDP(h1.Addr(), h2.Addr(), 1, 7, 64, ecn.NotECT, 1, nil)
	wire[11] ^= 0x01 // header checksum no longer verifies
	h1.SendRaw(wire)
	sim.Run()

	if len(log) != 2 || log[0] != "first" || log[1] != "second" {
		t.Errorf("policies saw the corrupt packet as %v, want [first second]", log)
	}
	if routers[0].Forwarded != 0 || routers[1].Forwarded != 0 {
		t.Errorf("corrupt packet forwarded (%d, %d)", routers[0].Forwarded, routers[1].Forwarded)
	}
}

// The time-exceeded quotation is the datagram exactly as it arrived at
// the expiring router with that router's TTL decrement — and its RFC
// 1624 checksum update — applied: the header a full recompute would
// give, so the quoted header still verifies.
func TestTimeExceededQuotesDecrementedDatagram(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 3, 0)
	var quote []byte
	h1.OnICMP(func(_ *Host, _ packet.IPv4Header, msg packet.ICMPMessage) {
		if msg.Type == packet.ICMPTimeExceeded {
			quote = append([]byte(nil), msg.Body...)
		}
	})
	sent, _ := packet.BuildUDP(h1.Addr(), h2.Addr(), 33434, 33435, 2, ecn.ECT0, 77, []byte("probe"))
	h1.SendRaw(append([]byte(nil), sent...))
	sim.Run()

	// Two hops of decrement, recomputed in full as the oracle.
	want := append([]byte(nil), sent[:packet.IPv4HeaderLen+8]...)
	want[8] = 0
	want[10], want[11] = 0, 0
	ck := packet.Checksum(want[:packet.IPv4HeaderLen])
	want[10], want[11] = byte(ck>>8), byte(ck)
	if !bytes.Equal(quote, want) {
		t.Errorf("quotation %x, want %x", quote, want)
	}
}
