package httpmin

import (
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/tcpsim"
)

// Port is the well-known HTTP port.
const Port = 80

// Handler computes a response for a request.
type Handler func(*Request) *Response

// Serve attaches an HTTP server to a TCP stack and returns its listener
// (whose ECN/BrokenECE knobs model the server-side properties the
// paper's Section 4.3 and the Kühlewind usability extension measure).
// The request handed to handler is valid until handler returns.
func Serve(stack *tcpsim.Stack, port uint16, ecnCapable bool, handler Handler) (*tcpsim.Listener, error) {
	return stack.Listen(port, ecnCapable, func(c *tcpsim.Conn) {
		shellsOf(stack).serve(c, handler)
	})
}

// shells is one simulation's two free lists: probe shells for Get, and
// per-connection shells for Serve. It lives in the simulation's
// tcpsim.Pool, beside the connection shells, so every stack on the
// simulator shares it: it is as single-goroutine as the simulation, is
// created by the first probe or connection rather than with the world,
// holds as many shells as there are exchanges at once, and hands them
// out in an order as deterministic as the simulation.
type shells struct {
	gets   *getRun
	serves *serverConn
}

func shellsOf(stack *tcpsim.Stack) *shells {
	p := stack.Pool()
	sh, _ := p.UserData.(*shells)
	if sh == nil {
		sh = new(shells)
		p.UserData = sh
	}
	return sh
}

// serverConn is the server side of one connection: receive buffer and
// parsed request in a recycled shell whose callbacks are bound once. It
// is released in onClose — the last callback tcpsim delivers for the
// connection — and keeps only buf's capacity across uses.
type serverConn struct {
	pool      *shells
	next      *serverConn // free-list link
	handler   Handler
	conn      *tcpsim.Conn
	buf       []byte
	bufArr    [128]byte // buf's first backing array: room for a probe's request
	req       Request
	onDataFn  func([]byte)
	onCloseFn func(error)
}

func (sh *shells) serve(c *tcpsim.Conn, handler Handler) {
	sc := sh.serves
	if sc != nil {
		sh.serves = sc.next
		sc.next = nil
	} else {
		sc = new(serverConn)
		sc.buf = sc.bufArr[:0]
		sc.onDataFn = sc.onData
		sc.onCloseFn = sc.onClose
	}
	sc.pool = sh
	sc.handler = handler
	sc.conn = c
	c.OnData(sc.onDataFn)
	c.OnClose(sc.onCloseFn)
}

func (sc *serverConn) onData(b []byte) {
	sc.buf = append(sc.buf, b...)
	err := sc.req.parse(sc.buf)
	if err == ErrIncomplete {
		return
	}
	if err != nil {
		sc.conn.Abort() // ends in onClose: sc is released, do not touch it
		return
	}
	sc.buf = sc.buf[:0] // req still reads these bytes; nothing appends before handler returns
	resp := sc.handler(&sc.req)
	sc.conn.Write(resp.Marshal())
	sc.conn.Close() // Connection: close semantics, as pool hosts use
}

func (sc *serverConn) onClose(error) {
	sh := sc.pool
	sc.pool = nil
	sc.handler = nil
	sc.conn = nil
	sc.buf = sc.buf[:0]
	sc.req = Request{}
	sc.next = sh.serves
	sh.serves = sc
}

// GetResult is the outcome of an HTTP probe. It is valid for the duration
// of the done callback: Response points into the probe's recycled state,
// so copy out what must outlive the call.
type GetResult struct {
	// Err is nil when an HTTP response was received. ErrRefused /
	// ErrTimeout from tcpsim indicate no web server / dead host.
	Err error
	// Response is the parsed response when Err is nil.
	Response *Response
	// ECNRequested and ECNNegotiated record the TCP-level ECN handshake
	// outcome (the paper's "ECN-setup SYN-ACK received" test).
	ECNRequested  bool
	ECNNegotiated bool
	// ECESeen counts ECE-flagged segments received — non-zero means the
	// peer echoed congestion for our CE-marked probe segments (the
	// usability criterion of the Kühlewind extension).
	ECESeen uint64
	// Elapsed is the virtual time from SYN to response.
	Elapsed time.Duration
}

// GetTimeout bounds an entire Get exchange. A probe tool needs its own
// deadline: a peer that completes the handshake but dies mid-response
// tears down silently on its side, and without an application timeout
// the client would wait forever.
const GetTimeout = 90 * time.Second

// GetConfig controls an HTTP probe beyond the plain/ECN split.
type GetConfig struct {
	// RequestECN sends an ECN-setup SYN.
	RequestECN bool
	// MarkCE sends the request's data segments CE-marked on a
	// negotiated connection (Kühlewind-style usability probe). The
	// GetResult's ECESeen reports whether the server echoed congestion.
	MarkCE bool
}

// Get issues "GET path" to dst:port from the given stack, optionally
// requesting ECN on the connection, and invokes done exactly once.
func Get(stack *tcpsim.Stack, dst packet.Addr, port uint16, path string, requestECN bool, done func(GetResult)) {
	GetWithConfig(stack, dst, port, path, GetConfig{RequestECN: requestECN}, done)
}

// GetWithConfig is Get with full probe control. Like ntp.Probe, the
// exchange's state lives in one recycled struct with callbacks bound
// once: HTTP probes run twice per server per trace, so their
// steady-state cost is zero allocations.
func GetWithConfig(stack *tcpsim.Stack, dst packet.Addr, port uint16, path string, gcfg GetConfig, done func(GetResult)) {
	sh := shellsOf(stack)
	g := sh.gets
	if g != nil {
		sh.gets = g.next
		g.next = nil
	} else {
		g = new(getRun)
		g.onDeadlineFn = g.onDeadline
		g.onDialFn = g.onDial
		g.onDataFn = g.onData
		g.onCloseFn = g.onConnClose
	}
	sim := stack.Host().Sim()
	g.pool = sh
	g.sim = sim
	g.dst = dst
	g.path = path
	g.start = sim.Now()
	g.done = done
	g.res = GetResult{ECNRequested: gcfg.RequestECN}
	g.finished = false
	g.deadline = sim.After(GetTimeout, g.onDeadlineFn)
	stack.Dial(dst, port, tcpsim.DialConfig{RequestECN: gcfg.RequestECN, MarkCE: gcfg.MarkCE}, g.onDialFn)
}

// getRun is the state of one in-flight HTTP probe. finish reports the
// result but is not where the shell is released: tcpsim may still hold
// its callbacks — the dial of an unanswered SYN outlives the 90 s
// deadline by 37 s, and a connection delivers data until it closes. The
// shell goes back to the free list in the last callback tcpsim
// can deliver: onDial with an error or after the deadline, otherwise
// onConnClose.
type getRun struct {
	pool     *shells
	next     *getRun // free-list link
	sim      *netsim.Sim
	dst      packet.Addr
	path     string
	start    time.Duration
	done     func(GetResult)
	res      GetResult
	resp     Response
	conn     *tcpsim.Conn
	deadline netsim.Timer
	finished bool
	buf      []byte // received bytes; resp aliases it
	req      []byte // request scratch

	onDeadlineFn func()
	onDialFn     func(*tcpsim.Conn, error)
	onDataFn     func([]byte)
	onCloseFn    func(error)
}

// release scrubs the shell and returns it to its simulation's free list.
// Callers must not touch g afterwards.
func (g *getRun) release() {
	sh := g.pool
	g.pool = nil
	g.sim = nil
	g.done = nil
	g.conn = nil
	g.res = GetResult{}
	g.resp = Response{}
	g.buf = g.buf[:0]
	g.next = sh.gets
	sh.gets = g
}

func (g *getRun) finish() {
	if !g.finished {
		g.finished = true
		g.deadline.Stop()
		if g.conn != nil {
			g.res.ECESeen = g.conn.ECESeen
		}
		g.res.Elapsed = g.sim.Now() - g.start
		g.done(g.res)
	}
}

func (g *getRun) onDeadline() {
	if g.finished {
		return
	}
	g.res.Err = tcpsim.ErrTimeout
	g.finish()
	if g.conn != nil {
		g.conn.Abort() // ends in onConnClose, which releases g
	}
	// A dial still in flight cleans itself up via its SYN timer, and
	// reports to onDial.
}

func (g *getRun) onDial(c *tcpsim.Conn, err error) {
	if g.finished {
		if c != nil {
			c.Abort() // deadline already fired; drop the late connection
		}
		g.release()
		return
	}
	if err != nil {
		g.res.Err = err
		g.finish()
		g.release()
		return
	}
	g.conn = c
	g.res.ECNNegotiated = c.ECNNegotiated()
	c.OnData(g.onDataFn)
	c.OnClose(g.onCloseFn)
	g.req = appendRequest(g.req[:0], g.path, g.dst)
	c.Write(g.req)
}

func (g *getRun) onData(b []byte) {
	if g.finished {
		return // bytes after the response (or a retransmission of it)
	}
	g.buf = append(g.buf, b...)
	perr := g.resp.parse(g.buf)
	if perr == ErrIncomplete {
		return
	}
	if perr != nil {
		g.res.Err = perr
		g.conn.Abort() // ends in onConnClose: reports, then releases g
		return
	}
	g.res.Response = &g.resp
	g.finish()
	g.conn.Close()
}

func (g *getRun) onConnClose(cerr error) {
	if g.res.Response == nil && g.res.Err == nil {
		if cerr == nil {
			cerr = tcpsim.ErrClosed
		}
		g.res.Err = cerr
	}
	g.finish()
	g.release()
}

// appendRequest assembles the GET request directly. The bytes are
// identical to marshalling a Request with Connection, Host and
// User-Agent headers, without building one.
func appendRequest(b []byte, path string, dst packet.Addr) []byte {
	b = append(b, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = append(b, "Connection: close\r\n"...)
	b = append(b, "Host: "...)
	b = appendDottedQuad(b, dst)
	b = append(b, "\r\n"...)
	b = append(b, "User-Agent: ecnspider/1.0\r\n"...)
	return append(b, "\r\n"...)
}

// appendDottedQuad renders an address without the netip round trip.
func appendDottedQuad(b []byte, a packet.Addr) []byte {
	for i, o := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(o), 10)
	}
	return b
}
