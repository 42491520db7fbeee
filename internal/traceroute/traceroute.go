// Package traceroute implements the Section 4.2 measurement: TTL-limited
// ECT(0)-marked UDP probes whose ICMP time-exceeded responses quote the
// offending IP header, letting the sender determine at which hop the ECN
// field was rewritten. The technique follows Bauer et al., tracebox and
// Malone & Luckie's ICMP-quotation analysis, as cited by the paper.
//
// Probes use the classic incrementing destination port so each ICMP
// quotation identifies exactly one probe (the simulated network has no
// ECMP, so per-probe ports cost nothing in path stability). A Mux
// installed on the probing host demultiplexes ICMP errors to concurrent
// sessions by the quoted destination address, allowing a vantage point to
// trace many targets in parallel.
package traceroute

import (
	"math"
	"slices"
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Config controls a traceroute run.
type Config struct {
	// ProbesPerHop is the number of probes sent per TTL (default 2; at
	// most 255); repeated probes expose "sometimes-strip" hops.
	ProbesPerHop int
	// StopAfterSilent ends the trace after this many consecutive
	// unresponsive TTLs (default 3) — the study's traces "generally stop
	// one hop before the destination".
	StopAfterSilent int
}

// Every probe carries ECT(0), as the study's did, to the classic
// traceroute ports from basePort up; a trace gives up past maxTTL, and
// a probe after probeTimeout.
const (
	probeECN     = ecn.ECT0
	basePort     = 33434
	maxTTL       = 30
	probeTimeout = 500 * time.Millisecond
)

// withDefaults fills in the defaults and bounds ProbesPerHop to 255, so
// a probe's attempt index fits the row's byte.
func (c Config) withDefaults() Config {
	if c.ProbesPerHop == 0 {
		c.ProbesPerHop = 2
	}
	c.ProbesPerHop = min(c.ProbesPerHop, math.MaxUint8)
	if c.StopAfterSilent == 0 {
		c.StopAfterSilent = 3
	}
	return c
}

// PathObservation is a single probe's outcome — one (hop, probe) data
// point of one vantage→target path, the row a sweep keeps and the
// Figure 4 analysis consumes. The paper's 155439 "IP level hops" are
// rows in this sense.
//
// The row is 24 bytes and holds no pointer: the vantage is its Table 2
// index (vantage.Name turns it back into the name), TTL and Attempt are
// as wide as the IP TTL field (maxTTL and Config bound both to 255), and
// the byte-sized fields sit together after the two addresses. A sweep
// stages and flattens a row per probe, so one added int costs 8 bytes
// per hop per copy (TestRowWidths).
type PathObservation struct {
	RTT    time.Duration
	Target packet.Addr
	// Hop is the router that answered (ICMP source).
	Hop packet.Addr
	// Vantage is the probing vantage's Table 2 index. A Mux does not know
	// it: the rows a Result lends carry 0, and the sweep that keeps them
	// writes the index.
	Vantage uint8
	TTL     uint8
	Attempt uint8
	// SentECN and QuotedECN compare the codepoint transmitted with the
	// codepoint quoted back; Transition classifies the difference.
	SentECN    ecn.Codepoint
	QuotedECN  ecn.Codepoint
	Transition ecn.Transition
	// Responded reports whether an ICMP error came back for this probe.
	Responded bool
	// ReachedDest marks a port-unreachable from the target itself.
	ReachedDest bool
}

// Result is a completed traceroute.
//
// Observations is the session's own buffer, lent to the done callback:
// it is valid until done returns, after which the Pool hands it to
// another path. A callback that keeps the rows copies them (a sweep
// flattens them into its slab; a test clones the slice).
type Result struct {
	Target       packet.Addr
	Observations []PathObservation
	// ReachedDest reports whether any probe got a terminal answer from
	// the target (rare here: pool hosts drop high-port UDP silently).
	ReachedDest bool
}

// Mux demultiplexes ICMP messages on a host to traceroute sessions keyed
// by target (quoted destination) address. Install exactly one per host —
// a topology vantage already carries its own (topology.Vantage.Mux).
//
// A Mux is meant to outlive the sweeps it serves: finished sessions wait
// on its Pool with their observation buffer, bound callbacks and probe
// payload, so once as many sessions exist as ever run at once, a
// traceroute allocates nothing.
type Mux struct {
	host *netsim.Host
	// sessions are the traces in flight, found by a scan for the target:
	// no hash table to regrow under a sweep's churn of targets.
	sessions []*session
	pool     *Pool
}

// Pool is the free list of finished sessions that every Mux of one world
// shares — a world's vantages sweep one after another on one goroutine,
// so a world holds as many session shells as it runs traceroutes at
// once, not that many per vantage. It is capacity, not state: Mux.Reset
// leaves it alone. The zero Pool is empty and ready; never share one
// across goroutines.
type Pool struct {
	free *session
}

// NewMux installs the demultiplexer as the host's ICMP handler, taking
// and returning session shells on pool. The host must not have one yet:
// a second Mux would silently take the first's ICMP messages and leave
// its probes to time out, so NewMux panics.
func NewMux(h *netsim.Host, pool *Pool) *Mux {
	if h.HandlesICMP() {
		panic("traceroute: NewMux on a host that already has an ICMP handler")
	}
	m := &Mux{host: h, pool: pool}
	h.OnICMP(m.handle)
	return m
}

// Reset forgets every session in flight without completing it — the Mux
// half of a world reset (topology.World.Reset), which has already
// discarded their timers and unbound their ports. The sessions are
// retired, not recycled (a timer that does survive finds its session
// finished and does nothing); the pool stays.
func (m *Mux) Reset() {
	for _, s := range m.sessions {
		s.finished = true
	}
	clear(m.sessions)
	m.sessions = m.sessions[:0]
}

// find returns the index in sessions of target's trace, or -1.
func (m *Mux) find(target packet.Addr) int {
	return slices.IndexFunc(m.sessions, func(s *session) bool { return s.target == target })
}

func (m *Mux) handle(h *netsim.Host, ip packet.IPv4Header, msg packet.ICMPMessage) {
	if msg.Type != packet.ICMPTimeExceeded && msg.Type != packet.ICMPDestUnreachable {
		return
	}
	// The quotation aliases the receive buffer; a session reads the ports
	// and the quoted ECN field out of it now and keeps none of its bytes.
	quoted, transport, err := msg.Quotation()
	if err != nil || quoted.Src != h.Addr() {
		return
	}
	if i := m.find(quoted.Dst); i >= 0 {
		m.sessions[i].onICMP(ip, msg, quoted, transport)
	}
}

// Run traces one target, invoking done exactly once; the Result it
// receives is valid until it returns. Concurrent Runs on one Mux must
// target distinct addresses (a second session to the same target is
// rejected with an immediate empty result).
func (m *Mux) Run(target packet.Addr, cfg Config, done func(Result)) {
	if m.find(target) >= 0 {
		done(Result{Target: target})
		return
	}
	s := m.pool.free
	if s != nil {
		m.pool.free = s.next
	} else {
		s = new(session)
		s.onTimeoutFn = s.onTimeout
	}
	cfg = cfg.withDefaults()
	if rows := maxTTL * cfg.ProbesPerHop; cap(s.obs) < rows {
		s.obs = make([]PathObservation, 0, rows) // a whole trace's, once
	}
	// Everything but the shell's own capacity starts from zero.
	*s = session{
		mux:         m,
		onTimeoutFn: s.onTimeoutFn,
		obs:         s.obs[:0],
		cfg:         cfg,
		target:      target,
		done:        done,
	}
	m.sessions = append(m.sessions, s)
	s.start()
}

// session is one in-flight traceroute — or, on a Pool, the shell of a
// finished one.
type session struct {
	mux  *Mux
	next *session // free-list link
	// Created once per shell: the timeout callback, the observation
	// buffer's backing array and the probe payload.
	onTimeoutFn func()
	obs         []PathObservation
	payload     [2]byte

	cfg     Config
	target  packet.Addr
	reached bool
	done    func(Result)

	srcPort    uint16
	probeIdx   int // sequential probe counter → dst port offset
	ttl        int
	attempt    int
	sentAt     time.Duration
	timer      netsim.Timer
	silentTTLs int
	responded  bool // any response at current TTL
	finished   bool
}

// probePort reserves the session's source port. A direct UDP response
// would mean the target answered the probe port; that is not modelled.
func probePort(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte) {}

func (s *session) start() {
	port, err := s.mux.host.BindUDP(0, probePort)
	if err != nil {
		s.finish()
		return
	}
	s.srcPort = port
	s.ttl = 1
	s.attempt = 0
	s.sendProbe()
}

func (s *session) dstPort(idx int) uint16 { return basePort + uint16(idx) }

func (s *session) sendProbe() {
	if s.finished {
		return
	}
	sim := s.mux.host.Sim()
	s.sentAt = sim.Now()
	idx := s.probeIdx
	s.payload = [2]byte{byte(idx >> 8), byte(idx)} // tiny payload, quoted back
	_ = s.mux.host.SendUDP(s.target, s.srcPort, s.dstPort(idx), uint8(s.ttl), probeECN, s.payload[:])
	s.timer = sim.After(probeTimeout, s.onTimeoutFn)
}

// advance moves to the next probe or TTL, applying stop conditions.
func (s *session) advance() {
	s.probeIdx++
	s.attempt++
	if s.attempt < s.cfg.ProbesPerHop {
		s.sendProbe()
		return
	}
	// TTL complete.
	if !s.responded {
		s.silentTTLs++
	} else {
		s.silentTTLs = 0
	}
	if s.silentTTLs >= s.cfg.StopAfterSilent || s.ttl >= maxTTL || s.reached {
		s.finish()
		return
	}
	s.ttl++
	s.attempt = 0
	s.responded = false
	s.sendProbe()
}

// A probe's TTL is the one its row records: maxTTL fits the row's byte.
const _ uint8 = maxTTL

func (s *session) onTimeout() {
	if s.finished {
		return
	}
	s.obs = append(s.obs, PathObservation{
		Target:  s.target,
		TTL:     uint8(s.ttl), // exact: maxTTL and withDefaults bound both
		Attempt: uint8(s.attempt),
		SentECN: probeECN,
	})
	s.advance()
}

func (s *session) onICMP(ip packet.IPv4Header, msg packet.ICMPMessage, quoted packet.IPv4Header, transport []byte) {
	if s.finished || quoted.Protocol != packet.ProtoUDP || len(transport) < 4 {
		return
	}
	srcPort := uint16(transport[0])<<8 | uint16(transport[1])
	dstPort := uint16(transport[2])<<8 | uint16(transport[3])
	if srcPort != s.srcPort || dstPort != s.dstPort(s.probeIdx) {
		return // stale probe (earlier TTL): ignore
	}
	s.timer.Stop()
	obs := PathObservation{
		Target:     s.target,
		TTL:        uint8(s.ttl),
		Attempt:    uint8(s.attempt),
		Responded:  true,
		Hop:        ip.Src,
		SentECN:    probeECN,
		QuotedECN:  quoted.ECN(),
		Transition: ecn.Classify(probeECN, quoted.ECN()),
		RTT:        s.mux.host.Sim().Now() - s.sentAt,
	}
	if msg.Type == packet.ICMPDestUnreachable && ip.Src == s.target {
		obs.ReachedDest = true
		s.reached = true
	}
	s.obs = append(s.obs, obs)
	s.responded = true
	s.advance()
}

// finish completes the session: off the Mux, port released, done called
// with the observation buffer on loan, and only then — done may have
// started the next trace — back on the pool.
func (s *session) finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.timer.Stop()
	m := s.mux
	m.host.UnbindUDP(s.srcPort)
	i := m.find(s.target)
	m.sessions = slices.Delete(m.sessions, i, i+1)
	done := s.done
	s.done = nil
	done(Result{Target: s.target, Observations: s.obs, ReachedDest: s.reached})
	s.next, m.pool.free = m.pool.free, s
}
