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
// needs TCP; it registers itself as the host's protocol-6 handler.
type Stack struct {
	host  *netsim.Host
	conns map[connKey]*Conn
	// listeners by local port.
	listeners map[uint16]*Listener
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
	s := &Stack{
		host:      h,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		pool:      poolOf(h.Sim()),
		TTL:       64,
	}
	h.RegisterProto(packet.ProtoTCP, s.receive)
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
// their shells joining the pool: the simulator they would report to has
// been reset under them. Listeners, TTL and the pool stay.
func (s *Stack) Reset() {
	for _, c := range s.conns {
		c.st = stateClosed
		c.release()
	}
	clear(s.conns)
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
	if _, taken := s.listeners[port]; taken {
		return nil, fmt.Errorf("tcpsim: port %d already listening", port)
	}
	l := &Listener{stack: s, port: port, ECN: ecnCapable, accept: accept}
	s.listeners[port] = l
	return l, nil
}

// Close stops accepting new connections.
func (l *Listener) Close() { delete(l.stack.listeners, l.port) }

// DialConfig controls an active open.
type DialConfig struct {
	// RequestECN sends an ECN-setup SYN, asking the server to negotiate
	// ECN for the connection.
	RequestECN bool
	// MarkCE transmits this side's data segments with the CE codepoint
	// instead of ECT(0) on negotiated connections — the crafted-probe
	// technique Kühlewind et al. used to test whether a server that
	// negotiates ECN actually echoes congestion (ECE). Requires
	// RequestECN.
	MarkCE bool
	// SYNRetries is the number of SYN retransmissions before giving up,
	// with 1s, 2s, 4s, … exponential backoff. The default of 6 matches
	// production stacks (Linux tcp_syn_retries), which is what lets TCP
	// "conceal the impact of packet loss" on lossy access links, as the
	// paper observes in §4.3. Virtual time makes the long worst case
	// (~127s per dial to a dead host) free.
	SYNRetries int
}

// Dial opens a connection to dst:port, invoking done exactly once with
// an established connection or an error (ErrRefused on RST, ErrTimeout
// when SYN retries are exhausted).
func (s *Stack) Dial(dst packet.Addr, port uint16, cfg DialConfig, done func(*Conn, error)) {
	if cfg.SYNRetries == 0 {
		cfg.SYNRetries = 6
	}
	key := connKey{remote: dst, remotePort: port, localPort: s.nextEphemeral()}
	c := newConn(s, key, stateSynSent)
	c.dialDone = done
	c.requestECN = cfg.RequestECN
	c.markCE = cfg.MarkCE && cfg.RequestECN
	c.synRetriesLeft = cfg.SYNRetries
	s.conns[key] = c
	c.sendSYN()
}

// nextEphemeral allocates a client port.
func (s *Stack) nextEphemeral() uint16 {
	for {
		s.ephemeral++
		if s.ephemeral < 49152 {
			s.ephemeral = 49152
		}
		key := false
		for k := range s.conns {
			if k.localPort == s.ephemeral {
				key = true
				break
			}
		}
		if _, listening := s.listeners[s.ephemeral]; !listening && !key {
			return s.ephemeral
		}
	}
}

// receive is the host's protocol-6 handler.
func (s *Stack) receive(h *netsim.Host, ip packet.IPv4Header, segment []byte) {
	hdr, payload, err := packet.ParseTCP(segment, ip.Src, ip.Dst)
	if err != nil {
		return
	}
	s.SegmentsIn++
	key := connKey{remote: ip.Src, remotePort: hdr.SrcPort, localPort: hdr.DstPort}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(ip, hdr, payload)
		return
	}
	// New connection? Only a pure SYN to a listening port qualifies.
	if hdr.Flags&packet.TCPSyn != 0 && hdr.Flags&packet.TCPAck == 0 {
		if l, ok := s.listeners[hdr.DstPort]; ok {
			c := newConn(s, key, stateSynRcvd)
			c.listener = l
			// RFC 3168: negotiate only if the client sent an ECN-setup
			// SYN and this listener is willing.
			c.ecnNegotiated = l.ECN && hdr.IsECNSetupSYN()
			c.rcvNxt = hdr.Seq + 1
			s.conns[key] = c
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
func (s *Stack) drop(c *Conn) { delete(s.conns, c.key) }

// after schedules on the host's simulator.
func (s *Stack) after(d time.Duration, fn func()) netsim.Timer {
	return s.host.Sim().After(d, fn)
}
