// Package tcpsim implements a compact TCP for the simulated network:
// three-way handshake with RFC 3168 ECN negotiation, reliable in-order
// byte streams with retransmission, graceful FIN teardown and RST
// handling.
//
// It exists because the study's TCP measurement depends on genuine
// handshake semantics: an "ECN-setup SYN" (SYN with ECE|CWR) answered by
// an "ECN-setup SYN-ACK" (SYN|ACK with ECE, CWR clear) constitutes
// successful negotiation, a plain SYN-ACK is a refusal, and a RST is the
// signature of a host not running the service. All of that, plus the
// ECT(0) marking of data segments on negotiated connections, happens on
// real TCP headers serialized by the packet package.
//
// Connections carry a small congestion controller so the endpoints are
// genuine RFC 3168 reactors, not mere negotiators: a byte-denominated
// congestion window limits data in flight, halves when the peer echoes
// congestion (ECE) or an RTO fires — at most once per window of data —
// and grows additively on forward progress. The initial window (10
// segments, RFC 6928) exceeds the study's HTTP exchanges, so the window
// only binds when the congestion substrate actually marks CE.
//
// Deliberate simplifications, irrelevant to reachability measurement and
// documented here for honesty: a single retransmission timer per
// connection (go-back-N), no out-of-order reassembly (later segments are
// dropped and recovered by retransmission), no receive-window flow
// control, and no TIME_WAIT (connections free on close). Retransmitted
// segments are sent not-ECT, following RFC 3168 §6.1.5 as implemented by
// production stacks.
package tcpsim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// Errors surfaced by Dial and connection teardown.
var (
	ErrTimeout = errors.New("tcpsim: connection timed out")
	ErrRefused = errors.New("tcpsim: connection refused")
	ErrReset   = errors.New("tcpsim: connection reset by peer")
	ErrClosed  = errors.New("tcpsim: connection closed")
	ErrNoPort  = errors.New("tcpsim: no ephemeral port free")
)

// MSS is the maximum segment size used for data transfer.
const MSS = 1460

// connKey identifies a connection from the local stack's perspective.
type connKey struct {
	remote     packet.Addr
	remotePort uint16
	localPort  uint16
}

// Stack is the per-host TCP layer. Create one per simulated host that
// needs TCP; it installs itself as the host's TCP handler.
type Stack struct {
	host *netsim.Host
	// conns (in creation order) and listeners, searched linearly: a
	// stack holds a handful of connections at once, a web server one
	// listener.
	conns     []*Conn
	listeners []*Listener
	ephemeral uint16
	// pool is the simulation's shell pool, shared with every other stack
	// on the host's simulator.
	pool *Pool

	// TTL for outgoing segments (64 unless overridden).
	TTL uint8

	// Counters for tests and reports.
	SegmentsIn  uint64
	SegmentsOut uint64
	RSTsSent    uint64
}

// Pool is one simulation's recycled shells, shared by every stack on the
// simulator (it lives in netsim.Sim.UserData). A simulation runs on one
// goroutine, so its stacks can hand shells to each other: a world holds
// as many connection shells as it has connections open at once, not one
// or two per web server. The free list fills as connections close,
// never ahead of time, so reuse order — and with it allocation — is as
// deterministic as the simulation.
type Pool struct {
	// free heads the list of closed connections' shells (linked through
	// Conn.nextFree) that newConn reuses.
	free *Conn
	// UserData belongs to the layer above: httpmin keeps its recycled
	// probe and serve shells here, next to the connections they drive.
	UserData any
}

// poolOf returns sim's shell pool, making it on first use.
func poolOf(sim *netsim.Sim) *Pool {
	p, _ := sim.UserData.(*Pool)
	if p == nil {
		p = new(Pool)
		sim.UserData = p
	}
	return p
}

// NewStack attaches a TCP stack to a host.
func NewStack(h *netsim.Host) *Stack {
	s := &Stack{host: h, pool: poolOf(h.Sim()), TTL: 64}
	h.OnTCP(s.receive)
	return s
}

// Host returns the underlying simulated host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Pool returns the shell pool the stack shares with every other stack on
// its simulator.
func (s *Stack) Pool() *Pool { return s.pool }

// Conns reports how many connections the stack holds: every state from
// SYN-SENT or SYN-RCVD until teardown.
func (s *Stack) Conns() int { return len(s.conns) }

// Reset returns the stack to its just-attached state: no connections,
// the port cursor and every counter (its listeners' too) rewound.
// Connections still in the demux table — a peer that went silent leaves
// one behind with no timer to reap it — are dropped without callbacks,
// their shells joining the pool in creation order: the simulator they
// would report to has been reset under them. Listeners, TTL and the
// pool stay.
func (s *Stack) Reset() {
	for _, c := range s.conns {
		c.st = stateClosed
		c.release()
	}
	clear(s.conns)
	s.conns = s.conns[:0]
	s.ephemeral = 0
	s.SegmentsIn, s.SegmentsOut, s.RSTsSent = 0, 0, 0
	for _, l := range s.listeners {
		l.Accepted = 0
	}
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack *Stack
	port  uint16
	// ECN controls whether ECN-setup SYNs are answered with an
	// ECN-setup SYN-ACK (the server-side willingness the paper measures).
	ECN bool
	// BrokenECE models hosts that negotiate ECN but never echo ECE for
	// CE-marked segments — the ~10% "negotiate but unusable" population
	// Kühlewind et al. measured. Connections accepted by such a
	// listener ignore CE marks.
	BrokenECE bool
	// accept is invoked for each connection that completes the
	// handshake.
	accept func(*Conn)

	// Accepted counts completed handshakes.
	Accepted uint64
}

// Listen binds a port. accept runs when a connection reaches
// ESTABLISHED.
func (s *Stack) Listen(port uint16, ecnCapable bool, accept func(*Conn)) (*Listener, error) {
	if s.listener(port) != nil {
		return nil, fmt.Errorf("tcpsim: port %d already listening", port)
	}
	l := &Listener{stack: s, port: port, ECN: ecnCapable, accept: accept}
	s.listeners = append(s.listeners, l)
	return l, nil
}

// listener returns the listener on port, or nil.
func (s *Stack) listener(port uint16) *Listener {
	for _, l := range s.listeners {
		if l.port == port {
			return l
		}
	}
	return nil
}

// Close stops accepting new connections.
func (l *Listener) Close() {
	s := l.stack
	s.listeners = slices.DeleteFunc(s.listeners, func(o *Listener) bool { return o.port == l.port })
}

// synRetries is the number of SYN retransmissions before a dial gives
// up, with 1s, 2s, 4s, … exponential backoff. Six matches production
// stacks (Linux tcp_syn_retries), which is what lets TCP "conceal the
// impact of packet loss" on lossy access links, as the paper observes
// in §4.3. Virtual time makes the long worst case (~127s per dial to a
// dead host) free.
const synRetries = 6

// Dial opens a connection to dst:port, invoking done exactly once with
// an established connection or an error (ErrRefused on RST, ErrTimeout
// when SYN retries are exhausted, ErrNoPort — before Dial returns — when
// the stack's connections and listeners hold every ephemeral port).
// With requestECN the SYN is an ECN-setup SYN, asking the server to
// negotiate ECN for the connection.
func (s *Stack) Dial(dst packet.Addr, port uint16, requestECN bool, done func(*Conn, error)) {
	local, ok := s.nextEphemeral()
	if !ok {
		done(nil, ErrNoPort)
		return
	}
	c := newConn(s, connKey{remote: dst, remotePort: port, localPort: local}, stateSynSent)
	c.dialDone = done
	c.requestECN = requestECN
	c.synRetriesLeft = synRetries
	s.conns = append(s.conns, c)
	c.sendSYN()
}

// The ephemeral ports: a dial takes the next free one after the last.
const (
	firstEphemeral = 49152
	ephemeralPorts = 1<<16 - firstEphemeral
)

// nextEphemeral allocates a client port: one pass over the stack's
// connections and listeners marks the ports in use, and the first free
// one after the cursor, wrapping, is taken. It fails when none is free.
func (s *Stack) nextEphemeral() (uint16, bool) {
	var used [ephemeralPorts / 64]uint64
	mark := func(p uint16) {
		if p >= firstEphemeral {
			used[(p-firstEphemeral)/64] |= 1 << (p % 64)
		}
	}
	for _, c := range s.conns {
		mark(c.key.localPort)
	}
	for _, l := range s.listeners {
		mark(l.port)
	}
	for range ephemeralPorts {
		if s.ephemeral++; s.ephemeral < firstEphemeral {
			s.ephemeral = firstEphemeral
		}
		if used[(s.ephemeral-firstEphemeral)/64]&(1<<(s.ephemeral%64)) == 0 {
			return s.ephemeral, true
		}
	}
	return 0, false
}

// receive is the host's TCP handler.
func (s *Stack) receive(h *netsim.Host, ip packet.IPv4Header, segment []byte) {
	hdr, payload, err := packet.ParseTCP(segment, ip.Src, ip.Dst)
	if err != nil {
		return
	}
	s.SegmentsIn++
	key := connKey{remote: ip.Src, remotePort: hdr.SrcPort, localPort: hdr.DstPort}
	if i := slices.IndexFunc(s.conns, func(c *Conn) bool { return c.key == key }); i >= 0 {
		s.conns[i].handleSegment(ip, hdr, payload)
		return
	}
	// New connection? Only a pure SYN to a listening port qualifies.
	if hdr.Flags&packet.TCPSyn != 0 && hdr.Flags&packet.TCPAck == 0 {
		if l := s.listener(hdr.DstPort); l != nil {
			c := newConn(s, key, stateSynRcvd)
			c.listener = l
			// RFC 3168: negotiate only if the client sent an ECN-setup
			// SYN and this listener is willing.
			c.ecnNegotiated = l.ECN && hdr.IsECNSetupSYN()
			c.rcvNxt = hdr.Seq + 1
			s.conns = append(s.conns, c)
			c.sendSYNACK()
			return
		}
	}
	// No matching connection or listener: refuse with RST, which is how
	// pool hosts without a web server answer HTTP probes.
	if hdr.Flags&packet.TCPRst == 0 {
		s.sendRST(ip.Src, hdr)
	}
}

// sendRST answers an unexpected segment per RFC 793 reset generation.
func (s *Stack) sendRST(dst packet.Addr, in packet.TCPHeader) {
	rst := &packet.TCPHeader{
		SrcPort: in.DstPort,
		DstPort: in.SrcPort,
		Flags:   packet.TCPRst | packet.TCPAck,
		Ack:     in.Seq + 1,
	}
	if in.Flags&packet.TCPAck != 0 {
		rst.Flags = packet.TCPRst
		rst.Seq = in.Ack
		rst.Ack = 0
	}
	b, err := packet.BuildTCPBuf(s.host.Addr(), dst, rst, s.TTL, 0 /* not-ECT */, s.host.NextIPID(), nil)
	if err != nil {
		return
	}
	s.RSTsSent++
	s.SegmentsOut++
	s.host.SendBuf(b)
}

// send transmits a segment for a connection with the given ECN
// codepoint. Segments are serialized into pooled wire buffers, so the
// per-segment path allocates nothing in steady state.
func (s *Stack) send(c *Conn, hdr *packet.TCPHeader, cp uint8, payload []byte) {
	b, err := packet.BuildTCPBuf(s.host.Addr(), c.key.remote, hdr, s.TTL,
		ecnCodepoint(cp), s.host.NextIPID(), payload)
	if err != nil {
		return
	}
	s.SegmentsOut++
	s.host.SendBuf(b)
}

// drop removes a connection from the demux table.
func (s *Stack) drop(c *Conn) {
	s.conns = slices.DeleteFunc(s.conns, func(o *Conn) bool { return o == c })
}

// after schedules on the host's simulator.
func (s *Stack) after(d time.Duration, fn func()) netsim.Timer {
	return s.host.Sim().After(d, fn)
}
