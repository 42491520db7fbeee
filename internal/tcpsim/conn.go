package tcpsim

import (
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Connection states (RFC 793 §3.2, minus LISTEN which lives in Listener
// and TIME_WAIT which is elided — see the package comment).
type state uint8

const (
	stateSynSent state = iota
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosing
	stateClosed
)

func (st state) String() string {
	names := [...]string{"SYN-SENT", "SYN-RCVD", "ESTABLISHED", "FIN-WAIT-1",
		"FIN-WAIT-2", "CLOSE-WAIT", "LAST-ACK", "CLOSING", "CLOSED"}
	if int(st) < len(names) {
		return names[st]
	}
	return "?"
}

// ecnCodepoint converts the internal marker to an ecn.Codepoint.
func ecnCodepoint(cp uint8) ecn.Codepoint { return ecn.Codepoint(cp) }

const (
	cpNotECT = uint8(ecn.NotECT)
	cpECT0   = uint8(ecn.ECT0)
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	key   connKey
	st    state

	// Sequence space.
	iss    uint32 // initial send sequence
	sndNxt uint32 // next sequence to send
	sndUna uint32 // oldest unacknowledged
	rcvNxt uint32 // next expected from peer

	// ECN.
	requestECN    bool // client side: ask for ECN in the SYN
	markCE        bool // client side: transmit data as CE (usability probe)
	ecnNegotiated bool
	// echoCE: receiver saw CE and must set ECE on ACKs until peer CWRs.
	echoCE bool
	// cwrPending: sender must set CWR on the next new data segment
	// because the peer echoed ECE.
	cwrPending bool

	// Congestion control: a byte-denominated congestion window limits
	// data in flight. It halves when the peer echoes congestion (ECE)
	// and on retransmission timeout, and grows additively on forward
	// progress — enough of RFC 5681/3168 for the endpoints to *react*
	// to CE, which is what makes the HTTP probes RFC 3168 endpoints
	// rather than mere negotiators.
	cwnd int
	// sendBuf holds the stream bytes the application has written:
	// sendBuf[:sendOff] is segmented and sent (rtxQueue payloads alias
	// it), sendBuf[sendOff:] waits for the window. Write only ever
	// appends — or rewinds to the start when rtxQueue is empty — so bytes
	// a retransmission may still need are never overwritten; when append
	// outgrows the array the old one lives on through rtxQueue.
	sendBuf []byte
	sendOff int
	// sendArr is sendBuf's first backing array: it holds a probe-sized
	// request or response, so such a connection costs one allocation.
	sendArr [256]byte
	// recover marks sndNxt at the last window reduction: at most one
	// reduction per window of data (RFC 3168 §6.1.2).
	recover uint32

	// Retransmission: segments in flight, oldest first (rtxArr is the
	// queue's first backing array: a request or response and its FIN).
	rtxQueue []sentSegment
	rtxArr   [4]sentSegment
	rtxTimer netsim.Timer
	rto      time.Duration

	// timerFn is the timer callback, bound once per shell so re-arming
	// the timer allocates no closure. hdrScratch backs header(): the
	// header is marshalled into the wire buffer before the next segment
	// is built, so one scratch per connection suffices.
	timerFn    func()
	hdrScratch packet.TCPHeader

	// SYN handling.
	synRetriesLeft int
	synBackoff     time.Duration

	// stalls counts consecutive RTO expirations without forward
	// progress; the connection aborts after too many.
	stalls int

	// FIN requested by the application (sent once queue drains).
	closeRequested bool
	finSent        bool

	listener *Listener
	dialDone func(*Conn, error)

	// Application callbacks.
	onData  func([]byte)
	onClose func(error)

	// nextFree links released shells on the pool's free list.
	nextFree *Conn

	// Telemetry.
	Retransmits    uint64
	CEMarksSeen    uint64
	ECESeen        uint64
	CWRSent        uint64
	CwndReductions uint64
	BytesReceived  uint64
}

// sentSegment is a queued in-flight segment for retransmission.
type sentSegment struct {
	seq     uint32
	flags   uint8
	payload []byte
}

// initialCwnd is the initial congestion window (RFC 6928's 10 segments):
// large enough that the study's small HTTP exchanges never queue behind
// it, so uncongested campaigns behave exactly as before this window
// existed.
const initialCwnd = 10 * MSS

// minCwnd is the reduction floor (two segments, RFC 5681).
const minCwnd = 2 * MSS

// newConn is the one connection constructor: it takes a shell from the
// simulation's pool (or makes one, binding its timer callback) and
// resets everything but that callback and the capacity of sendBuf and
// rtxQueue.
func newConn(s *Stack, key connKey, st state) *Conn {
	iss := s.host.Sim().RNG().Uint32()
	c := s.pool.free
	if c != nil {
		s.pool.free = c.nextFree
		*c = Conn{timerFn: c.timerFn, sendBuf: c.sendBuf[:0], rtxQueue: c.rtxQueue[:0]}
	} else {
		c = new(Conn)
		c.timerFn = c.onTimer
		c.sendBuf = c.sendArr[:0]
		c.rtxQueue = c.rtxArr[:0]
	}
	c.stack = s
	c.key = key
	c.st = st
	c.iss = iss
	c.sndNxt = iss
	c.sndUna = iss
	c.cwnd = initialCwnd
	c.recover = iss
	c.rto = time.Second
	c.synBackoff = time.Second
	return c
}

// release returns a closed connection's shell to the pool. It is the
// last act of teardown, after the application's final callback has
// returned: nothing the stack still holds (demux entry, timer) can reach
// the shell again. The references are scrubbed so that a stale holder
// fails on a nil stack or callback instead of corrupting the next
// connection; st stays CLOSED (every entry point checks it) and the
// telemetry counters stay readable until the shell is reused.
func (c *Conn) release() {
	s := c.stack
	c.stack = nil
	c.listener = nil
	c.dialDone = nil
	c.onData = nil
	c.onClose = nil
	c.nextFree = s.pool.free
	s.pool.free = c
}

// --- Public API ---------------------------------------------------------

// ECNNegotiated reports whether the handshake agreed to use ECN.
func (c *Conn) ECNNegotiated() bool { return c.ecnNegotiated }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// State returns a human-readable connection state (for tests/logs).
func (c *Conn) State() string { return c.st.String() }

// LocalPort returns the local port of the connection.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() packet.Addr { return c.key.remote }

// OnData registers the receive callback (in-order stream bytes).
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnClose registers a callback invoked once when the connection ends;
// err is nil for a graceful FIN exchange, ErrReset for a RST.
func (c *Conn) OnClose(fn func(error)) { c.onClose = fn }

// Write queues stream data, copying it into the connection's send
// buffer (the caller may reuse data at once). Data written before the
// handshake completes is sent upon ESTABLISHED.
func (c *Conn) Write(data []byte) {
	if c.st == stateClosed || c.closeRequested {
		return
	}
	if len(c.rtxQueue) == 0 && c.sendOff == len(c.sendBuf) {
		// Everything written so far is acknowledged: start over at the
		// front of the array instead of growing it.
		c.sendBuf = c.sendBuf[:0]
		c.sendOff = 0
	}
	c.sendBuf = append(c.sendBuf, data...)
	if c.st == stateEstablished || c.st == stateCloseWait {
		c.pump()
	}
}

// Close initiates a graceful shutdown (FIN after pending data).
func (c *Conn) Close() {
	if c.st == stateClosed || c.closeRequested {
		return
	}
	c.closeRequested = true
	c.maybeSendFIN()
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.st == stateClosed {
		return
	}
	hdr := c.header(packet.TCPRst | packet.TCPAck)
	c.stack.send(c, hdr, cpNotECT, nil)
	c.teardown(ErrReset)
}

// --- Segment construction ----------------------------------------------

// header builds a TCP header for the current connection state into the
// connection's scratch (valid until the next header call; the stack
// marshals it into wire bytes immediately).
func (c *Conn) header(flags uint8) *packet.TCPHeader {
	c.hdrScratch = packet.TCPHeader{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.sndNxt,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  65535,
	}
	return &c.hdrScratch
}

// dataECN picks the IP codepoint for a data-bearing segment.
func (c *Conn) dataECN() uint8 {
	switch {
	case c.ecnNegotiated && c.markCE:
		return uint8(ecn.CE)
	case c.ecnNegotiated:
		return cpECT0
	}
	return cpNotECT
}

// brokenECE reports whether this endpoint ignores CE marks (server side
// only, inherited from its listener).
func (c *Conn) brokenECE() bool {
	return c.listener != nil && c.listener.BrokenECE
}

// mssOption is the MSS option every SYN carries, encoded once. Marshal
// copies option bytes into the segment, so sharing the slice is safe.
var mssOption = packet.MSSOption(MSS)

func (c *Conn) sendSYN() {
	flags := uint8(packet.TCPSyn)
	if c.requestECN {
		// ECN-setup SYN: SYN|ECE|CWR, sent not-ECT (RFC 3168 §6.1.1 —
		// which is why the paper could not compare ECT vs not-ECT SYNs).
		flags |= packet.TCPEce | packet.TCPCwr
	}
	hdr := c.header(flags)
	hdr.Ack = 0
	hdr.Options = mssOption
	c.stack.send(c, hdr, cpNotECT, nil)
	c.armSYNTimer()
}

func (c *Conn) sendSYNACK() {
	flags := uint8(packet.TCPSyn | packet.TCPAck)
	if c.ecnNegotiated {
		flags |= packet.TCPEce // ECN-setup SYN-ACK: ECE without CWR
	}
	hdr := c.header(flags)
	hdr.Options = mssOption
	c.stack.send(c, hdr, cpNotECT, nil)
	c.armSYNTimer()
}

// armSYNTimer retransmits handshake segments with exponential backoff.
func (c *Conn) armSYNTimer() {
	c.stopTimer()
	c.rtxTimer = c.stack.after(c.synBackoff, c.timerFn)
}

// onTimer is the connection's one timer callback. The handshake and
// retransmission timers share rtxTimer — arming one stops the other, and
// leaving the handshake stops it — so the state says which one is due.
func (c *Conn) onTimer() {
	if c.st == stateSynSent || c.st == stateSynRcvd {
		c.onSYNTimer()
	} else {
		c.onRTO()
	}
}

// onSYNTimer retransmits the handshake segment or gives up.
func (c *Conn) onSYNTimer() {
	if c.synRetriesLeft <= 0 {
		c.teardown(ErrTimeout)
		return
	}
	c.synRetriesLeft--
	c.synBackoff *= 2
	c.Retransmits++
	if c.st == stateSynSent {
		c.sendSYN()
	} else {
		c.sendSYNACK()
	}
}

// inFlight is the unacknowledged byte count.
func (c *Conn) inFlight() int { return int(c.sndNxt - c.sndUna) }

// pump segments and transmits buffered bytes up to the congestion
// window. At least one segment may always be in flight, so a reduced
// window can stall but never deadlock the stream.
func (c *Conn) pump() {
	sentAny := false
	for c.sendOff < len(c.sendBuf) {
		n := len(c.sendBuf) - c.sendOff
		if n > MSS {
			n = MSS
		}
		if fl := c.inFlight(); fl > 0 && fl+n > c.cwnd {
			break // window full; ACKs re-open it
		}
		chunk := c.sendBuf[c.sendOff : c.sendOff+n]
		c.sendOff += n

		flags := uint8(packet.TCPAck | packet.TCPPsh)
		if c.cwrPending {
			flags |= packet.TCPCwr
			c.cwrPending = false
			c.CWRSent++
		}
		if c.echoCE {
			flags |= packet.TCPEce
		}
		hdr := c.header(flags)
		c.stack.send(c, hdr, c.dataECN(), chunk)
		c.rtxQueue = append(c.rtxQueue, sentSegment{seq: c.sndNxt, flags: flags, payload: chunk})
		c.sndNxt += uint32(len(chunk))
		sentAny = true
	}
	if sentAny {
		c.armRTO()
	}
}

// reduceWindow is the RFC 3168 congestion response to an ECE echo (and
// the RTO response): halve the window, at most once per window of data.
func (c *Conn) reduceWindow() {
	if !seqLEQ(c.recover, c.sndUna) {
		return // already reduced within this window of data
	}
	c.cwnd /= 2
	if c.cwnd < minCwnd {
		c.cwnd = minCwnd
	}
	c.recover = c.sndNxt
	c.CwndReductions++
}

// maybeSendFIN emits the FIN once all data is acknowledged-or-queued.
func (c *Conn) maybeSendFIN() {
	if c.finSent || !c.closeRequested || c.sendOff < len(c.sendBuf) {
		return
	}
	switch c.st {
	case stateEstablished, stateCloseWait:
	default:
		return
	}
	flags := uint8(packet.TCPFin | packet.TCPAck)
	hdr := c.header(flags)
	c.stack.send(c, hdr, cpNotECT, nil)
	c.rtxQueue = append(c.rtxQueue, sentSegment{seq: c.sndNxt, flags: flags})
	c.sndNxt++ // FIN consumes a sequence number
	c.finSent = true
	if c.st == stateEstablished {
		c.st = stateFinWait1
	} else {
		c.st = stateLastAck
	}
	c.armRTO()
}

// sendACK emits a bare acknowledgement, echoing ECE while CE stands.
func (c *Conn) sendACK() {
	flags := uint8(packet.TCPAck)
	if c.echoCE {
		flags |= packet.TCPEce
	}
	c.stack.send(c, c.header(flags), cpNotECT, nil)
}

// --- Retransmission -----------------------------------------------------

func (c *Conn) armRTO() {
	if len(c.rtxQueue) == 0 {
		c.stopTimer()
		return
	}
	c.stopTimer()
	c.rtxTimer = c.stack.after(c.rto, c.timerFn)
}

func (c *Conn) onRTO() {
	if c.st == stateClosed || len(c.rtxQueue) == 0 {
		return
	}
	if c.stalls >= 8 {
		c.teardown(ErrTimeout)
		return
	}
	c.stalls++
	// Timeout is a congestion signal too (the legacy one).
	c.reduceWindow()
	// Go-back-N: resend everything outstanding. RFC 3168 §6.1.5:
	// retransmitted packets must not be ECT-marked.
	for _, seg := range c.rtxQueue {
		c.Retransmits++
		hdr := c.header(seg.flags)
		hdr.Seq = seg.seq
		c.stack.send(c, hdr, cpNotECT, seg.payload)
	}
	c.rto *= 2
	c.armRTO()
}

func (c *Conn) stopTimer() {
	c.rtxTimer.Stop()
	c.rtxTimer = netsim.Timer{}
}

// --- Segment processing -------------------------------------------------

// seqLEQ compares sequence numbers with wraparound.
func seqLEQ(a, b uint32) bool { return int32(b-a) >= 0 }
func seqLT(a, b uint32) bool  { return int32(b-a) > 0 }

// handleSegment is the per-connection receive path.
func (c *Conn) handleSegment(ip packet.IPv4Header, hdr packet.TCPHeader, payload []byte) {
	if c.st == stateClosed {
		return
	}

	// CE on an ECN connection: note it and echo ECE until CWR arrives.
	if c.ecnNegotiated && ip.ECN() == ecn.CE {
		c.CEMarksSeen++
		if !c.brokenECE() {
			c.echoCE = true
		}
	}
	if hdr.Flags&packet.TCPCwr != 0 && hdr.Flags&packet.TCPSyn == 0 {
		c.echoCE = false // peer reduced its window; stop echoing
	}
	// Peer echoed congestion: react by flagging CWR on the next new data
	// segment (the congestion-response handshake the RTP/TCP ECN
	// usability tests look for). The SYN-ACK's ECE is negotiation, not a
	// congestion echo, hence the SYN exclusion.
	if c.ecnNegotiated && hdr.Flags&packet.TCPEce != 0 && hdr.Flags&packet.TCPSyn == 0 {
		c.ECESeen++
		c.cwrPending = true
		c.reduceWindow()
	}

	if hdr.Flags&packet.TCPRst != 0 {
		// Acceptable RST: in SYN-SENT it must ACK our SYN; otherwise it
		// must fall in the receive window (we check exact next-seq).
		if c.st == stateSynSent {
			if hdr.Flags&packet.TCPAck != 0 && hdr.Ack == c.sndNxt+1 {
				c.teardown(ErrRefused)
			}
			return
		}
		if hdr.Seq == c.rcvNxt || hdr.Flags&packet.TCPAck != 0 {
			c.teardown(ErrReset)
		}
		return
	}

	switch c.st {
	case stateSynSent:
		if hdr.Flags&packet.TCPSyn == 0 || hdr.Flags&packet.TCPAck == 0 {
			return
		}
		if hdr.Ack != c.iss+1 {
			return // not acknowledging our SYN
		}
		c.sndNxt = c.iss + 1
		c.sndUna = c.sndNxt
		c.rcvNxt = hdr.Seq + 1
		c.ecnNegotiated = c.requestECN && hdr.IsECNSetupSYNACK()
		c.st = stateEstablished
		c.stopTimer()
		c.sendACK()
		c.flushPending()
		if c.dialDone != nil {
			done := c.dialDone
			c.dialDone = nil
			done(c, nil)
		}
		return

	case stateSynRcvd:
		if hdr.Flags&packet.TCPSyn != 0 && hdr.Flags&packet.TCPAck == 0 {
			// Duplicate SYN: re-answer.
			c.sendSYNACK()
			return
		}
		if hdr.Flags&packet.TCPAck != 0 && hdr.Ack == c.iss+1 {
			c.sndNxt = c.iss + 1
			c.sndUna = c.sndNxt
			c.st = stateEstablished
			c.stopTimer()
			if c.listener != nil {
				c.listener.Accepted++
				if c.listener.accept != nil {
					c.listener.accept(c)
				}
			}
			if c.st == stateClosed {
				return // accept aborted the connection
			}
			c.flushPending()
			// Fall through: the handshake ACK may carry data.
		} else {
			return
		}
	}

	// ACK processing for data/FIN states.
	if hdr.Flags&packet.TCPAck != 0 {
		c.processACK(hdr.Ack)
		if c.st == stateClosed {
			return // that was the ACK of our FIN
		}
	}

	// In-order payload delivery; out-of-order segments are dropped and
	// re-ACKed (retransmission fills the gap).
	if len(payload) > 0 {
		if hdr.Seq == c.rcvNxt {
			c.rcvNxt += uint32(len(payload))
			c.BytesReceived += uint64(len(payload))
			if c.onData != nil {
				c.onData(payload)
			}
			if c.st == stateClosed {
				return // callback aborted the connection
			}
		}
		c.sendACK()
	}

	// FIN processing.
	if hdr.Flags&packet.TCPFin != 0 && hdr.Seq == c.rcvNxt {
		c.rcvNxt++
		c.sendACK()
		switch c.st {
		case stateEstablished:
			c.st = stateCloseWait
			// Auto-close: this model's applications (probe-style HTTP
			// exchanges) always close once the peer does, so the stack
			// answers the FIN with its own rather than waiting for an
			// explicit Close that request/response code never issues.
			c.closeRequested = true
			c.maybeSendFIN()
		case stateFinWait1:
			c.st = stateClosing
		case stateFinWait2:
			c.teardown(nil)
		}
	}
}

// processACK advances the send window and drives state transitions that
// depend on our FIN being acknowledged.
func (c *Conn) processACK(ack uint32) {
	if hdrAckAdvances := seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndNxt); !hdrAckAdvances {
		return
	}
	acked := int(ack - c.sndUna)
	c.sndUna = ack
	c.stalls = 0
	c.rto = time.Second // forward progress: reset backoff
	// Congestion avoidance: roughly one MSS per window of acknowledged
	// data, capped so a long-idle window cannot grow without bound.
	if c.cwnd < 64*MSS {
		c.cwnd += MSS * acked / c.cwnd
	}
	// Drop fully acknowledged segments from the queue, sliding the rest
	// to the front so the array's capacity survives for the next
	// connection.
	n := 0
	for ; n < len(c.rtxQueue); n++ {
		seg := c.rtxQueue[n]
		segEnd := seg.seq + uint32(len(seg.payload))
		if seg.flags&(packet.TCPSyn|packet.TCPFin) != 0 {
			segEnd++
		}
		if !seqLEQ(segEnd, ack) {
			break
		}
	}
	c.rtxQueue = c.rtxQueue[:copy(c.rtxQueue, c.rtxQueue[n:])]
	if len(c.rtxQueue) == 0 {
		c.stopTimer()
	} else {
		c.armRTO()
	}

	if c.finSent && ack == c.sndNxt {
		switch c.st {
		case stateFinWait1:
			c.st = stateFinWait2
		case stateClosing, stateLastAck:
			c.teardown(nil)
		}
	}
	if c.st != stateClosed {
		c.pump() // the advanced window may admit buffered data
	}
	c.maybeSendFIN()
}

// flushPending sends what was written (and closed) during the handshake.
func (c *Conn) flushPending() {
	c.pump()
	c.maybeSendFIN()
}

// teardown finalises the connection, notifies the application — dialDone
// for a connection that never established, onClose otherwise — and
// recycles the shell. The CLOSED check makes it idempotent, so an Abort
// from inside either callback cannot release twice.
func (c *Conn) teardown(err error) {
	if c.st == stateClosed {
		return
	}
	c.st = stateClosed
	c.stopTimer()
	c.stack.drop(c)
	if done := c.dialDone; done != nil {
		c.dialDone = nil
		if err == nil {
			err = ErrClosed
		}
		done(nil, err)
	} else if fn := c.onClose; fn != nil {
		c.onClose = nil
		fn(err)
	}
	c.release()
}
