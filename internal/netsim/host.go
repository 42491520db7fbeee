package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// TapDirection distinguishes packets a tap saw leaving vs arriving.
type TapDirection uint8

// Tap directions.
const (
	TapOut TapDirection = iota
	TapIn
)

// Tap observes every packet a host sends or receives, like a tcpdump
// session running on that machine. The capture package provides recording
// taps; tests install ad-hoc closures.
type Tap func(dir TapDirection, at time.Duration, wire []byte)

// UDPHandler processes a datagram delivered to a bound UDP port.
type UDPHandler func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte)

// ICMPHandler processes an ICMP message delivered to the host. msg.Body
// (for errors, the quotation) aliases the receive buffer, which the host
// releases when the handler returns — the same rule UDPHandler's payload
// and TCPHandler's segment follow: a handler reads what it needs during
// the call and copies any bytes it keeps.
type ICMPHandler func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage)

// TCPHandler processes a raw TCP segment, which the host does not
// terminate natively (the tcpsim package installs one per stack).
type TCPHandler func(h *Host, ip packet.IPv4Header, segment []byte)

// Host is an end system: it owns an address, one access link, a set of
// bound UDP ports, optional ICMP and TCP handlers, and packet taps.
type Host struct {
	net    *Network
	label  string
	uplink *Link

	// udp holds the bound UDP ports, searched linearly: a server binds
	// one, a vantage one per concurrent probe session.
	udp  []udpBinding
	icmp ICMPHandler
	tcp  TCPHandler
	taps []Tap
	// UserData belongs to the protocol layer that probes from this host:
	// ntp keeps its recycled probe shells here, as tcpsim and httpmin
	// keep theirs on the simulator (Sim.UserData). Capacity, not state:
	// reset leaves it alone.
	UserData any

	// Counters.
	Sent     uint64
	Received uint64

	addr      packet.Addr
	ipID      uint16
	ephemeral uint16
	online    bool
	// RespondPortUnreachable controls whether UDP datagrams to unbound
	// ports elicit ICMP port-unreachable errors. The study's NTP servers
	// (or firewalls in front of them) do not respond to high-port
	// traceroute probes — traces "generally stop one hop before the
	// destination" — so the default is silent drop.
	RespondPortUnreachable bool
}

// hostBaseline is the part of a host's socket surface that exists
// before any traffic flows, as Network.MarkBaseline records it: the
// services bound while the world was built (NTP, DNS; Network.baseUDP
// from udp[0] to udp[1]), the ICMP handler and the number of taps
// installed by then, and the port-unreachable switch.
type hostBaseline struct {
	icmp                   ICMPHandler
	udp                    [2]int32
	taps                   int32
	respondPortUnreachable bool
}

type udpBinding struct {
	port uint16
	fn   UDPHandler
}

// reset returns the host's mutable state to its baseline b: online,
// counters and ID/port cursors rewound, every UDP binding, ICMP handler
// and tap added since the baseline gone. The TCP handler (OnTCP) is
// part of the world's structure and stays. The binding slice's capacity
// never falls below the baseline's length, so restoring it copies in
// place.
func (h *Host) reset(b *hostBaseline) {
	h.online = true
	h.ipID = 0
	h.ephemeral = 0
	h.Sent, h.Received = 0, 0
	h.RespondPortUnreachable = b.respondPortUnreachable
	h.icmp = b.icmp
	clear(h.taps[b.taps:])
	h.taps = h.taps[:b.taps]
	clear(h.udp)
	h.udp = append(h.udp[:0], h.net.baseUDP[b.udp[0]:b.udp[1]]...)
}

// Label implements Node.
func (h *Host) Label() string { return h.label }

// Addr returns the host's address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Sim returns the simulation the host lives in, for protocol timers.
func (h *Host) Sim() *Sim { return h.net.Sim }

// Uplink exposes the host's access link so campaigns can vary its loss.
func (h *Host) Uplink() *Link { return h.uplink }

// SetOnline switches the host between answering and dead. An offline
// host drops all traffic silently — modelling the NTP pool's volunteer
// churn, where hosts leave the pool but keep their DNS entries briefly.
func (h *Host) SetOnline(v bool) { h.online = v }

// Online reports whether the host is answering.
func (h *Host) Online() bool { return h.online }

// AddTap installs a packet tap.
func (h *Host) AddTap(t Tap) { h.taps = append(h.taps, t) }

// BindUDP registers a handler for a UDP port. Binding port 0 picks a free
// ephemeral port. The chosen port is returned.
func (h *Host) BindUDP(port uint16, fn UDPHandler) (uint16, error) {
	if port == 0 {
		port = h.nextEphemeral()
	}
	if h.bound(port) >= 0 {
		return 0, fmt.Errorf("netsim: %s (%s): UDP port %d already bound", h.label, h.addr, port)
	}
	h.udp = append(h.udp, udpBinding{port, fn})
	return port, nil
}

// UnbindUDP releases a bound port.
func (h *Host) UnbindUDP(port uint16) {
	if i := h.bound(port); i >= 0 {
		h.udp = slices.Delete(h.udp, i, i+1)
	}
}

// bound returns the index of port's binding in h.udp, or -1.
func (h *Host) bound(port uint16) int {
	for i := range h.udp {
		if h.udp[i].port == port {
			return i
		}
	}
	return -1
}

// OnICMP registers the handler invoked for ICMP messages addressed to the
// host (traceroute and probe clients use this to hear time-exceeded and
// port-unreachable errors).
func (h *Host) OnICMP(fn ICMPHandler) { h.icmp = fn }

// HandlesICMP reports whether an ICMP handler is installed.
func (h *Host) HandlesICMP() bool { return h.icmp != nil }

// OnTCP installs the handler for TCP segments addressed to the host.
// Datagrams of any protocol other than UDP, ICMP and TCP are dropped.
func (h *Host) OnTCP(fn TCPHandler) { h.tcp = fn }

// nextEphemeral hands out ports from the dynamic range, skipping bound
// ones.
func (h *Host) nextEphemeral() uint16 {
	for {
		h.ephemeral++
		if h.ephemeral < 49152 {
			h.ephemeral = 49152
		}
		if h.bound(h.ephemeral) < 0 {
			return h.ephemeral
		}
	}
}

// NextIPID returns a fresh IP identification value for outgoing packets.
func (h *Host) NextIPID() uint16 {
	h.ipID++
	return h.ipID
}

// SendUDP builds and transmits a UDP datagram with the given ECN
// codepoint and TTL. It is the primitive under both the NTP prober and
// the traceroute engine. The datagram is serialized into a pooled wire
// buffer, so steady-state sends allocate nothing.
func (h *Host) SendUDP(dst packet.Addr, srcPort, dstPort uint16, ttl uint8, cp ecn.Codepoint, payload []byte) error {
	b, err := packet.BuildUDPBuf(h.addr, dst, srcPort, dstPort, ttl, cp, h.NextIPID(), payload)
	if err != nil {
		return err
	}
	h.SendBuf(b)
	return nil
}

// SendBuf transmits a pre-serialized wire buffer, taking ownership of
// the caller's reference (tcpsim builds segments straight into pooled
// buffers and sends them through here).
func (h *Host) SendBuf(b *packet.Buf) {
	if !h.online {
		b.Release()
		return
	}
	h.Sent++
	if len(h.taps) > 0 {
		wire := b.Bytes()
		for _, t := range h.taps {
			t(TapOut, h.net.Sim.Now(), wire)
		}
	}
	if h.uplink != nil {
		h.uplink.Send(h, b)
		return
	}
	b.Release()
}

// Receive implements Node: demultiplex to the bound socket surface.
// The buffer is released when the handlers return; handlers that keep
// bytes (capture taps, reassembly buffers) copy them.
func (h *Host) Receive(b *packet.Buf, from *Link) {
	defer b.Release()
	if !h.online {
		return
	}
	h.Received++
	wire := b.Bytes()
	for _, t := range h.taps {
		t(TapIn, h.net.Sim.Now(), wire)
	}
	ip, body, err := packet.ParseIPv4(wire)
	if err != nil || ip.Dst != h.addr {
		return
	}
	switch ip.Protocol {
	case packet.ProtoUDP:
		udp, payload, err := packet.ParseUDP(body, ip.Src, ip.Dst)
		if err != nil {
			return
		}
		if i := h.bound(udp.DstPort); i >= 0 {
			h.udp[i].fn(h, ip, udp, payload)
			return
		}
		if h.RespondPortUnreachable {
			h.sendPortUnreachable(wire)
		}
	case packet.ProtoICMP:
		msg, err := packet.ParseICMP(body)
		if err != nil {
			return
		}
		if h.icmp != nil {
			h.icmp(h, ip, msg)
		}
	case packet.ProtoTCP:
		if h.tcp != nil {
			h.tcp(h, ip, body)
		}
	}
}

// sendPortUnreachable emits the ICMP error a reachable-but-unbound UDP
// port generates. The quotation goes from the offending datagram's
// receive buffer straight into the reply's pooled one.
func (h *Host) sendPortUnreachable(offending []byte) {
	ip, _, err := packet.ParseIPv4(offending)
	if err != nil {
		return
	}
	msg := packet.NewDestUnreachable(packet.ICMPCodePortUnreach, offending)
	b, err := packet.BuildICMPBuf(h.addr, ip.Src, 64, h.NextIPID(), msg)
	if err != nil {
		return
	}
	h.SendBuf(b)
}
