package ntp

import (
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Probe parameters from Section 3 of the paper: an NTP request is sent
// and, if no response arrives within one second, retransmitted up to five
// times before the server is declared unreachable.
const (
	DefaultTimeout         = time.Second
	DefaultRetransmissions = 5
	// maxRetransmissions bounds ProbeConfig.Retransmissions: with the
	// initial request, at most 255 attempts.
	maxRetransmissions = 254
)

// ProbeConfig controls one reachability probe.
type ProbeConfig struct {
	// ECN is the codepoint to mark the request packets with: the study
	// compares not-ECT against ECT(0).
	ECN ecn.Codepoint
	// Timeout per attempt; DefaultTimeout when zero.
	Timeout time.Duration
	// Retransmissions after the initial request. Zero selects the
	// paper's default of five; a negative value disables retransmission
	// (single attempt). A budget above 254 is bounded to it, so a
	// probe's Attempts fits the byte a dataset row keeps it in.
	Retransmissions int
	// TTL for request packets; 64 when zero.
	TTL uint8
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Retransmissions == 0 {
		c.Retransmissions = DefaultRetransmissions
	}
	c.Retransmissions = min(max(c.Retransmissions, 0), maxRetransmissions)
	if c.TTL == 0 {
		c.TTL = 64
	}
	return c
}

// ProbeResult reports the outcome of a reachability probe.
type ProbeResult struct {
	Server    packet.Addr
	ECN       ecn.Codepoint // codepoint the requests carried
	Reachable bool
	Attempts  int           // requests transmitted
	RTT       time.Duration // of the successful exchange
	// ResponseECN is the codepoint observed on the response packet. The
	// paper could not probe the return path (servers send not-ECT); the
	// field exists so the simulator's ground truth can be checked.
	ResponseECN ecn.Codepoint
	Response    Packet
}

// Probe performs the paper's UDP reachability measurement from a
// simulated host against one NTP server, invoking done exactly once. It
// drives itself on the host's simulator; the caller must run the
// simulation for progress.
//
// The probe state lives in one recycled struct with callbacks bound
// once per shell: probes are the campaign's innermost loop, so a
// probe's steady-state cost is zero allocations rather than a closure
// per concern. Shells wait on a free list the probing host owns
// (Host.UserData) — single-goroutine like the host, filled as probes
// finish, and as long-lived as the world, so reuse is as deterministic
// as the simulation.
func Probe(h *netsim.Host, server packet.Addr, cfg ProbeConfig, done func(ProbeResult)) {
	p, _ := h.UserData.(*probeRun)
	if p != nil {
		h.UserData = p.next
		p.next = nil
	} else {
		p = new(probeRun)
		p.attemptFn = p.attempt
		p.datagramFn = p.onDatagram
	}
	p.h = h
	p.cfg = cfg.withDefaults()
	p.done = done
	p.res = ProbeResult{Server: server, ECN: cfg.ECN}
	p.timer = netsim.Timer{}
	p.finished = false
	p.sent = p.sentArr[:0]

	var err error
	p.port, err = h.BindUDP(0, p.datagramFn)
	if err != nil {
		p.release()
		done(ProbeResult{Server: server, ECN: cfg.ECN})
		return
	}
	p.attempt()
}

// probeRun is the state of one in-flight reachability probe.
type probeRun struct {
	next     *probeRun // free-list link
	h        *netsim.Host
	cfg      ProbeConfig
	done     func(ProbeResult)
	res      ProbeResult
	port     uint16
	timer    netsim.Timer
	finished bool
	// sent records (transmit timestamp, send time) per attempt, backed
	// by an inline array sized for the default retransmission budget. A
	// response is accepted if its origin matches ANY attempt: the paper
	// marks a server reachable "if an NTP response is received after
	// any request".
	sent       []sentAttempt
	sentArr    [8]sentAttempt
	attemptFn  func()
	datagramFn func(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte)
}

// release scrubs the shell and returns it to its host's free list.
// Callers must not touch p afterwards.
func (p *probeRun) release() {
	h := p.h
	p.h = nil
	p.done = nil
	p.sent = nil
	p.next, _ = h.UserData.(*probeRun)
	h.UserData = p
}

func (p *probeRun) finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.timer.Stop()
	p.h.UnbindUDP(p.port)
	done, res := p.done, p.res
	// Last touch: done may start the next probe, reusing this shell —
	// the stopped timer and unbound port cannot reach it again.
	p.release()
	done(res)
}

func (p *probeRun) onDatagram(host *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
	if p.finished || ip.Src != p.res.Server {
		return
	}
	resp, perr := Parse(payload)
	if perr != nil || resp.Mode != ModeServer {
		return
	}
	for _, s := range p.sent {
		if resp.OriginTS == s.xmitTS {
			p.res.Reachable = true
			p.res.RTT = p.h.Sim().Now() - s.at
			p.res.ResponseECN = ip.ECN()
			p.res.Response = resp
			p.finish()
			return
		}
	}
}

func (p *probeRun) attempt() {
	if p.finished {
		return
	}
	if p.res.Attempts > p.cfg.Retransmissions {
		p.finish() // all attempts timed out: unreachable
		return
	}
	p.res.Attempts++
	sim := p.h.Sim()
	now := sim.Now()
	// Perturb the timestamp fraction by the attempt number so each
	// retransmission is distinguishable even when the virtual clock
	// has not advanced.
	ts := TimestampFromSim(now) | uint64(p.res.Attempts)
	p.sent = append(p.sent, sentAttempt{xmitTS: ts, at: now})
	req := NewRequest(ts)
	// Marshal into a stack scratch buffer: SendUDP copies the payload
	// into its pooled wire buffer, so the request never escapes.
	var scratch [PacketLen]byte
	// Send errors cannot occur for fixed-size NTP requests; if one
	// did, the timeout path retries regardless.
	_ = p.h.SendUDP(p.res.Server, p.port, Port, p.cfg.TTL, p.cfg.ECN, req.Marshal(scratch[:0]))
	p.timer = sim.After(p.cfg.Timeout, p.attemptFn)
}

// sentAttempt pairs a request's transmit timestamp with its send time.
type sentAttempt struct {
	xmitTS uint64
	at     time.Duration
}
