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
// and ProtoHandler's segment follow: a handler reads what it needs during
// the call and copies any bytes it keeps.
type ICMPHandler func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage)

// ProtoHandler processes a raw transport segment for protocols the host
// does not terminate natively (the tcpsim package registers one for TCP).
type ProtoHandler func(h *Host, ip packet.IPv4Header, segment []byte)

// Host is an end system: it owns an address, one access link, a set of
// bound UDP ports, optional protocol handlers, and packet taps.
type Host struct {
	sim    *Sim
	net    *Network
	label  string
	addr   packet.Addr
	uplink *Link

	online bool
	ipID   uint16

	udpPorts  map[uint16]UDPHandler
	icmp      ICMPHandler
	protos    map[packet.Protocol]ProtoHandler
	taps      []Tap
	ephemeral uint16
	// base is the socket surface Network.MarkBaseline recorded — what
	// reset returns the host to.
	base hostBaseline
	// UserData belongs to the protocol layer that probes from this host:
	// ntp keeps its recycled probe shells here, as tcpsim and httpmin
	// keep theirs on the simulator (Sim.UserData). Capacity, not state:
	// reset leaves it alone.
	UserData any

	// RespondPortUnreachable controls whether UDP datagrams to unbound
	// ports elicit ICMP port-unreachable errors. The study's NTP servers
	// (or firewalls in front of them) do not respond to high-port
	// traceroute probes — traces "generally stop one hop before the
	// destination" — so the default is silent drop.
	RespondPortUnreachable bool

	// Counters.
	Sent     uint64
	Received uint64
}

// hostBaseline is the part of a host's socket surface that exists
// before any traffic flows: the services bound while the world was
// built (NTP, DNS), the ICMP handler and taps installed by then, and
// the port-unreachable switch.
type hostBaseline struct {
	udp                    []udpBinding
	icmp                   ICMPHandler
	taps                   int
	respondPortUnreachable bool
}

type udpBinding struct {
	port uint16
	fn   UDPHandler
}

// markBaseline records the host's current socket surface, carving its
// UDP binding list off the front of slab (one array serves the whole
// network) and returning the rest.
func (h *Host) markBaseline(slab []udpBinding) []udpBinding {
	n := len(h.udpPorts)
	h.base = hostBaseline{
		udp:                    slab[:0:n],
		icmp:                   h.icmp,
		taps:                   len(h.taps),
		respondPortUnreachable: h.RespondPortUnreachable,
	}
	for port, fn := range h.udpPorts {
		h.base.udp = append(h.base.udp, udpBinding{port, fn})
	}
	// Port order, not map order: recorded state must be a function of
	// the world alone.
	slices.SortFunc(h.base.udp, func(a, b udpBinding) int { return int(a.port) - int(b.port) })
	return slab[n:]
}

// reset returns the host's mutable state to the recorded baseline:
// online, counters and ID/port cursors rewound, every UDP binding, ICMP
// handler and tap added since the baseline gone. Protocol handlers
// (RegisterProto) are part of the world's structure and stay.
func (h *Host) reset() {
	h.online = true
	h.ipID = 0
	h.ephemeral = 0
	h.Sent, h.Received = 0, 0
	h.RespondPortUnreachable = h.base.respondPortUnreachable
	h.icmp = h.base.icmp
	clear(h.taps[h.base.taps:])
	h.taps = h.taps[:h.base.taps]
	clear(h.udpPorts)
	for _, b := range h.base.udp {
		h.udpPorts[b.port] = b.fn
	}
}

// Label implements Node.
func (h *Host) Label() string { return h.label }

// Addr returns the host's address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Sim returns the simulation the host lives in, for protocol timers.
func (h *Host) Sim() *Sim { return h.sim }

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
	if _, taken := h.udpPorts[port]; taken {
		return 0, fmt.Errorf("netsim: %s: UDP port %d already bound", h.label, port)
	}
	h.udpPorts[port] = fn
	return port, nil
}

// UnbindUDP releases a bound port.
func (h *Host) UnbindUDP(port uint16) { delete(h.udpPorts, port) }

// OnICMP registers the handler invoked for ICMP messages addressed to the
// host (traceroute and probe clients use this to hear time-exceeded and
// port-unreachable errors).
func (h *Host) OnICMP(fn ICMPHandler) { h.icmp = fn }

// HandlesICMP reports whether an ICMP handler is installed.
func (h *Host) HandlesICMP() bool { return h.icmp != nil }

// RegisterProto installs a raw handler for an IP protocol (e.g. TCP).
func (h *Host) RegisterProto(p packet.Protocol, fn ProtoHandler) {
	h.protos[p] = fn
}

// nextEphemeral hands out ports from the dynamic range, skipping bound
// ones.
func (h *Host) nextEphemeral() uint16 {
	for {
		h.ephemeral++
		if h.ephemeral < 49152 {
			h.ephemeral = 49152
		}
		if _, taken := h.udpPorts[h.ephemeral]; !taken {
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
			t(TapOut, h.sim.Now(), wire)
		}
	}
	if h.uplink != nil {
		h.uplink.Send(h, b)
		return
	}
	b.Release()
}

// SendRaw transmits pre-serialized wire bytes, adopting the slice into
// the pooled-buffer world (the caller must relinquish it).
func (h *Host) SendRaw(wire []byte) {
	h.SendBuf(packet.AdoptBuf(wire))
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
		t(TapIn, h.sim.Now(), wire)
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
		if fn, ok := h.udpPorts[udp.DstPort]; ok {
			fn(h, ip, udp, payload)
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
	default:
		if fn, ok := h.protos[ip.Protocol]; ok {
			fn(h, ip, body)
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
