package netsim

import (
	"repro/internal/packet"
)

// Verdict is a middlebox policy decision about a transit packet.
type Verdict uint8

// Policy verdicts.
const (
	Pass Verdict = iota // forward the (possibly mutated) packet
	Drop                // discard silently, as the study's middleboxes do
)

// Policy is a middlebox behaviour attached to a router. Apply may mutate
// the wire bytes in place (e.g. bleach the ECN field, fixing the header
// checksum) and returns a verdict. Policies run on ingress, before TTL
// handling, so a policy's rewrite is visible in the ICMP quotation the
// same router generates — matching a middlebox deployed immediately in
// front of the router.
type Policy interface {
	Apply(r *Router, wire []byte) Verdict
	// Name identifies the policy kind in topology dumps and tests.
	Name() string
	// Reset clears whatever the policy accumulated from traffic
	// (counters, per-flow memory), leaving its configuration. A reused
	// world resets its routers' policies between shards.
	Reset()
}

// Router is an IP forwarding node. It applies its middlebox policies,
// decrements TTL (emitting RFC 792 time-exceeded errors with quotations
// when it hits zero), and forwards along topology-computed routes.
type Router struct {
	net      *Network
	label    string
	policies []Policy
	// hopWord, hopBase and hopWidth are the router's row of the
	// forwarding table (hopRow's word, base and width), copied in with
	// the table so that forwarding finds them with the router.
	hopWord, hopBase uint32
	id               int32
	addr             packet.Addr
	ipID             uint16
	hopWidth         uint8

	// CorruptDrops counts headers the peek rejects, LocalDrops packets
	// addressed to the router itself (it terminates no transport), and
	// ZeroTTLDrops packets that arrived with TTL 0 and cannot be
	// decremented. Sinks this rare fit 32 bits, which with the fields'
	// order keeps a Router in the 112-byte size class a world allocates
	// a thousand of.
	CorruptDrops uint32

	// Telemetry for the traceroute analysis and tests: every packet the
	// router receives moves exactly one of these.
	Forwarded    uint64
	PolicyDrops  uint64
	TTLExpiries  uint64
	NoRouteDrops uint64
	LocalDrops   uint32
	ZeroTTLDrops uint32
}

// reset rewinds the router's ICMP ID cursor and telemetry and resets
// its policies; policy attachment is structure and stays.
func (r *Router) reset() {
	r.ipID = 0
	r.Forwarded, r.PolicyDrops, r.TTLExpiries, r.NoRouteDrops = 0, 0, 0, 0
	r.CorruptDrops, r.LocalDrops, r.ZeroTTLDrops = 0, 0, 0
	for _, p := range r.policies {
		p.Reset()
	}
}

// Label implements Node.
func (r *Router) Label() string { return r.label }

// Addr returns the router's own address (the source of its ICMP errors).
func (r *Router) Addr() packet.Addr { return r.addr }

// ID returns the router's dense index within its Network.
func (r *Router) ID() int { return int(r.id) }

// AddPolicy attaches a middlebox policy. Policies run in attachment order.
func (r *Router) AddPolicy(p Policy) { r.policies = append(r.policies, p) }

// Receive implements Node: the router forwarding path. The buffer
// reference is forwarded along the route when the packet survives and
// released on every drop path.
//
// A transit hop reads the wire bytes at fixed offsets and never builds
// an IPv4Header: packet.PeekIPv4 makes every check the full parse
// makes (length, version, IHL, total length, header checksum) and
// yields the destination; the TTL decrement and its RFC 1624 checksum
// update happen in place. Only a TTL expiry runs packet.ParseIPv4 —
// the ICMP error needs the source address and protocol.
func (r *Router) Receive(b *packet.Buf, from *Link) {
	wire := b.Bytes()
	for _, p := range r.policies {
		if p.Apply(r, wire) == Drop {
			r.PolicyDrops++
			b.Release()
			return
		}
	}

	dst, ok := packet.PeekIPv4(wire)
	if !ok {
		r.CorruptDrops++
		b.Release()
		return // corrupt packets die here, as in a real forwarding plane
	}

	// Local delivery to the router's own address: routers terminate no
	// transport protocols in this model, so such packets are absorbed.
	if dst == r.addr {
		r.LocalDrops++
		b.Release()
		return
	}

	ttl, err := packet.DecrementWireTTL(wire)
	if err != nil {
		r.ZeroTTLDrops++
		b.Release()
		return
	}
	if ttl == 0 {
		r.TTLExpiries++
		// The decrement kept the header checksum valid, so the datagram
		// still parses; it is quoted as it arrived, TTL update applied.
		if ip, _, err := packet.ParseIPv4(wire); err == nil {
			r.sendTimeExceeded(ip, wire)
		}
		b.Release()
		return
	}

	link, d := r.route(dst)
	if link == nil {
		r.NoRouteDrops++
		b.Release()
		return
	}
	r.Forwarded++
	link.send(d, b)
}

// route resolves the egress link toward dst, and the direction this
// router sends on it, through the network's address index: the access
// link when dst is a host attached here, otherwise the next hop toward
// dst's attachment router — or toward the router dst itself names,
// since ICMP replies to traceroute must route *toward* routers too. It
// returns a nil link when dst is unknown, unattached, unreachable, or
// this router's own address.
func (r *Router) route(dst packet.Addr) (*Link, int) {
	n := r.net
	e := n.index.lookup(dst)
	if e.router == 0 {
		return nil, 0
	}
	if e.router-1 == r.id {
		if e.host == 0 {
			return nil, 0
		}
		// Attach builds an access link host → router, so the router
		// sends on direction 1.
		return n.hosts[e.host-1].uplink, 1
	}
	if !n.routed {
		panic("netsim: ComputeRoutes not called")
	}
	hop := n.hops.at(r.hopWord, r.hopBase, r.hopWidth, int(e.router-1))
	if hop < 0 {
		return nil, 0
	}
	return n.links[hop>>1], int(hop & 1)
}

// sendTimeExceeded emits the ICMP error that traceroute elicits. Per
// common router practice the quotation covers the IP header plus eight
// payload bytes of the datagram *as it arrived here* — including any ECN
// rewrite an upstream (or local ingress) middlebox applied, which is
// exactly the signal the Section 4.2 analysis extracts. No time-exceeded
// is generated about ICMP errors themselves (RFC 1122 §3.2.2). The
// quotation is copied once, from the dropped datagram's buffer (which
// the caller still holds) into the reply's pooled one; the path
// allocates nothing.
func (r *Router) sendTimeExceeded(ip packet.IPv4Header, dropped []byte) {
	if ip.Protocol == packet.ProtoICMP {
		if msg, err := packet.ParseICMP(dropped[packet.IPv4HeaderLen:]); err == nil {
			if msg.Type == packet.ICMPTimeExceeded || msg.Type == packet.ICMPDestUnreachable {
				return
			}
		}
	}
	r.ipID++
	reply, err := packet.BuildICMPBuf(r.addr, ip.Src, 64, r.ipID, packet.NewTimeExceeded(dropped))
	if err != nil {
		return
	}
	if link, d := r.route(ip.Src); link != nil {
		link.send(d, reply)
		return
	}
	reply.Release()
}
