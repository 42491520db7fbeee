package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// fixture wires client — r1 — r2 — server with TCP stacks on both hosts.
type fixture struct {
	sim            *netsim.Sim
	net            *netsim.Network
	client, server *netsim.Host
	cs, ss         *Stack
	r1, r2         *netsim.Router
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	sim := netsim.NewSim(seed)
	n := netsim.NewNetwork(sim)
	r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 64500)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 64501)
	n.Connect(r1, r2, 5*time.Millisecond, 0)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r1, time.Millisecond, 0)
	n.Attach(server, r2, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		sim: sim, net: n, client: client, server: server,
		cs: NewStack(client), ss: NewStack(server),
		r1: r1, r2: r2,
	}
}

// echoServer installs a listener that records received bytes and echoes
// them back. It closes its side once the client half-closes (the stack
// auto-answers FINs), so clients drive the teardown.
func echoServer(t *testing.T, f *fixture, port uint16, ecnCapable bool) *[]byte {
	t.Helper()
	var got []byte
	_, err := f.ss.Listen(port, ecnCapable, func(c *Conn) {
		c.OnData(func(b []byte) {
			got = append(got, b...)
			c.Write(b)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return &got
}

func TestHandshakeAndEcho(t *testing.T) {
	f := newFixture(t, 1)
	serverGot := echoServer(t, f, 80, false)

	var clientGot []byte
	var closeErr error
	closed := false
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if c.ECNNegotiated() {
			t.Error("ECN negotiated without being requested")
		}
		c.OnData(func(b []byte) {
			clientGot = append(clientGot, b...)
			c.Close()
		})
		c.OnClose(func(err error) { closed, closeErr = true, err })
		c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	})
	f.sim.Run()

	if string(*serverGot) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("server got %q", *serverGot)
	}
	if string(clientGot) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("client got %q", clientGot)
	}
	if !closed || closeErr != nil {
		t.Errorf("close: %v %v", closed, closeErr)
	}
	if len(f.cs.conns) != 0 || len(f.ss.conns) != 0 {
		t.Errorf("connections leaked: %d client, %d server", len(f.cs.conns), len(f.ss.conns))
	}
}

func TestECNNegotiationSuccess(t *testing.T) {
	f := newFixture(t, 2)
	echoServer(t, f, 80, true)

	var negotiated bool
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		negotiated = c.ECNNegotiated()
		c.Close()
	})
	f.sim.Run()
	if !negotiated {
		t.Error("ECN-capable server did not negotiate")
	}
}

func TestECNNegotiationRefused(t *testing.T) {
	f := newFixture(t, 3)
	echoServer(t, f, 80, false) // server not ECN-capable

	var negotiated, connected bool
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		connected = true
		negotiated = c.ECNNegotiated()
		c.Close()
	})
	f.sim.Run()
	if !connected {
		t.Fatal("connection failed entirely")
	}
	if negotiated {
		t.Error("negotiated ECN with an unwilling server")
	}
}

func TestECNNotRequestedNotNegotiated(t *testing.T) {
	f := newFixture(t, 4)
	echoServer(t, f, 80, true) // willing server

	var negotiated bool
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		negotiated = c.ECNNegotiated()
		c.Close()
	})
	f.sim.Run()
	if negotiated {
		t.Error("server negotiated ECN on a plain SYN")
	}
}

func TestSYNACKWireFlags(t *testing.T) {
	// Verify on the wire that negotiation produces an ECN-setup SYN-ACK
	// and data segments are ECT(0) — the exact observables of §4.3.
	f := newFixture(t, 5)
	echoServer(t, f, 80, true)

	var synAckECNSetup, sawECT0Data bool
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		if dir != netsim.TapIn {
			return
		}
		d, err := packet.Decode(wire)
		if err != nil || d.TCP == nil {
			return
		}
		if d.TCP.Has(packet.TCPSyn | packet.TCPAck) {
			synAckECNSetup = d.TCP.IsECNSetupSYNACK()
		}
		if len(d.Payload) > 0 && d.IP.ECN() == ecn.ECT0 {
			sawECT0Data = true
		}
	})

	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("hello"))
		c.Close()
	})
	f.sim.Run()
	if !synAckECNSetup {
		t.Error("SYN-ACK was not an ECN-setup SYN-ACK")
	}
	if !sawECT0Data {
		t.Error("no ECT(0)-marked data segments observed")
	}
}

func TestConnectionRefusedByRST(t *testing.T) {
	f := newFixture(t, 6)
	// No listener on port 80: host answers with RST.
	var dialErr error
	start := f.sim.Now()
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) { dialErr = err })
	f.sim.Run()
	if dialErr != ErrRefused {
		t.Errorf("dial err = %v, want ErrRefused", dialErr)
	}
	if f.sim.Now()-start > 100*time.Millisecond {
		t.Errorf("refusal took %v; RST should be fast", f.sim.Now()-start)
	}
	if f.ss.RSTsSent != 1 {
		t.Errorf("server sent %d RSTs", f.ss.RSTsSent)
	}
}

func TestDialTimeoutOfflineHost(t *testing.T) {
	f := newFixture(t, 7)
	f.server.SetOnline(false)
	var dialErr error
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) { dialErr = err })
	f.sim.Run()
	if dialErr != ErrTimeout {
		t.Errorf("dial err = %v, want ErrTimeout", dialErr)
	}
	// 6 retries: 1+2+4+8+16+32+64 = 127s total.
	if f.sim.Now() < 120*time.Second || f.sim.Now() > 135*time.Second {
		t.Errorf("timeout took %v", f.sim.Now())
	}
}

func TestLossRecovery(t *testing.T) {
	f := newFixture(t, 8)
	serverGot := echoServer(t, f, 80, true)
	// 30% loss both ways on the inter-router link.
	var interLink *netsim.Link
	for _, l := range []*netsim.Link{} {
		_ = l
	}
	// The r1-r2 link is the only router-router link; grab via path stats:
	// simplest is to recreate it — instead, set loss on both access links.
	f.client.Uplink().SetLossBoth(0.2)
	f.server.Uplink().SetLossBoth(0.2)
	_ = interLink

	payload := bytes.Repeat([]byte("0123456789abcdef"), 600) // ~9.4KB, 7 segments
	var clientGot []byte
	done := false
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial under loss: %v", err)
		}
		c.OnData(func(b []byte) {
			clientGot = append(clientGot, b...)
			if len(clientGot) == len(payload) {
				c.Close()
			}
		})
		c.OnClose(func(err error) { done = true })
		c.Write(payload)
	})
	f.sim.Run()

	if !bytes.Equal(*serverGot, payload) {
		t.Fatalf("server received %d bytes, want %d (in order)", len(*serverGot), len(payload))
	}
	if !bytes.Equal(clientGot, payload) {
		t.Fatalf("client received %d echoed bytes, want %d", len(clientGot), len(payload))
	}
	if !done {
		t.Error("connection did not close cleanly")
	}
}

func TestSegmentationAtMSS(t *testing.T) {
	f := newFixture(t, 9)
	echoServer(t, f, 80, false)

	maxSeg := 0
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		d, err := packet.Decode(wire)
		if err == nil && d.TCP != nil && len(d.Payload) > maxSeg {
			maxSeg = len(d.Payload)
		}
	})
	big := make([]byte, 4*MSS+123)
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Write(big)
		c.Close()
	})
	f.sim.Run()
	if maxSeg != MSS {
		t.Errorf("max segment = %d, want %d", maxSeg, MSS)
	}
}

func TestRetransmissionsAreNotECT(t *testing.T) {
	f := newFixture(t, 10)
	echoServer(t, f, 80, true)
	// Drop everything the client sends for a window, forcing data
	// retransmission, then heal the link.
	var rtxECN []ecn.Codepoint
	seenSeqs := map[uint32]int{}
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		if dir != netsim.TapOut {
			return
		}
		d, err := packet.Decode(wire)
		if err != nil || d.TCP == nil || len(d.Payload) == 0 {
			return
		}
		seenSeqs[d.TCP.Seq]++
		if seenSeqs[d.TCP.Seq] > 1 {
			rtxECN = append(rtxECN, d.IP.ECN())
		}
	})

	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		// Break the client's access link after the handshake; the first
		// transmission is lost, a retransmission follows on a healed link.
		f.client.Uplink().SetLossBoth(1.0)
		c.Write([]byte("data lost once"))
		f.sim.After(1500*time.Millisecond, func() {
			f.client.Uplink().SetLossBoth(0)
		})
		c.Close()
	})
	f.sim.Run()

	if len(rtxECN) == 0 {
		t.Fatal("no retransmissions observed")
	}
	for _, cp := range rtxECN {
		if cp != ecn.NotECT {
			t.Errorf("retransmission marked %v; RFC 3168 requires not-ECT", cp)
		}
	}
}

func TestCEMarkingEchoedWithECE(t *testing.T) {
	f := newFixture(t, 11)
	// Router marks all ECT packets CE: the receiver must echo ECE, and
	// the sender must eventually set CWR.
	f.r1.AddPolicy(&middlebox.CEMarker{Probability: 1})

	var serverConn *Conn
	f.ss.Listen(80, true, func(c *Conn) {
		serverConn = c
		// Echo without closing: the client sends two chunks, and the
		// second must carry CWR in response to the ECE echoes elicited
		// by the first.
		c.OnData(func(b []byte) { c.Write(b) })
	})

	sawECE, sawCWR := false, false
	f.server.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		d, err := packet.Decode(wire)
		if err != nil || d.TCP == nil {
			return
		}
		if dir == netsim.TapOut && d.TCP.Flags&packet.TCPEce != 0 && d.TCP.Flags&packet.TCPSyn == 0 {
			sawECE = true
		}
		if dir == netsim.TapIn && d.TCP.Flags&packet.TCPCwr != 0 && d.TCP.Flags&packet.TCPSyn == 0 {
			sawCWR = true
		}
	})

	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func(b []byte) {})
		// Two writes so a CWR-bearing data segment follows the ECE echo.
		c.Write([]byte("first"))
		f.sim.After(100*time.Millisecond, func() {
			c.Write([]byte("second"))
			c.Close()
		})
	})
	f.sim.Run()

	if serverConn == nil {
		t.Fatal("no server connection")
	}
	if serverConn.CEMarksSeen == 0 {
		t.Error("server saw no CE marks despite CE-marking router")
	}
	if !sawECE {
		t.Error("receiver did not echo ECE")
	}
	if !sawCWR {
		t.Error("sender never set CWR")
	}
}

func TestListenerDuplicatePort(t *testing.T) {
	f := newFixture(t, 12)
	if _, err := f.ss.Listen(80, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ss.Listen(80, false, nil); err == nil {
		t.Error("duplicate listen accepted")
	}
}

func TestListenerClose(t *testing.T) {
	f := newFixture(t, 13)
	l, _ := f.ss.Listen(80, false, nil)
	l.Close()
	var dialErr error
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) { dialErr = err })
	f.sim.Run()
	if dialErr != ErrRefused {
		t.Errorf("dial after listener close = %v, want ErrRefused", dialErr)
	}
}

// TestListenAfterClose: a closed listener's port takes a new listener,
// which answers the next SYN with its own ECN willingness; the other
// port keeps its listener throughout.
func TestListenAfterClose(t *testing.T) {
	f := newFixture(t, 15)
	l, err := f.ss.Listen(80, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := f.ss.Listen(443, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	relisten, err := f.ss.Listen(80, true, nil)
	if err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
	negotiated := map[uint16]bool{}
	for _, port := range []uint16{80, 443} {
		f.cs.Dial(f.server.Addr(), port, true, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial %d: %v", port, err)
				return
			}
			negotiated[port] = c.ECNNegotiated()
			c.Abort()
		})
	}
	f.sim.Run()
	if !negotiated[80] || negotiated[443] {
		t.Errorf("ECN negotiated %v, want only port 80's new listener to", negotiated)
	}
	if relisten.Accepted != 1 || other.Accepted != 1 || l.Accepted != 0 {
		t.Errorf("accepted: new %d, other %d, closed %d; want 1, 1, 0", relisten.Accepted, other.Accepted, l.Accepted)
	}
}

// TestEphemeralSkipsListeningPort: a client port is never one the stack
// listens on.
func TestEphemeralSkipsListeningPort(t *testing.T) {
	f := newFixture(t, 16)
	if _, err := f.cs.Listen(49152, false, nil); err != nil {
		t.Fatal(err)
	}
	if p, _ := f.cs.nextEphemeral(); p != 49153 {
		t.Errorf("first client port = %d, want 49153 past the listener on 49152", p)
	}
}

// TestDialFailsWhenPortsRunOut: a stack whose connections hold every
// ephemeral port fails its next dial with ErrNoPort, before Dial
// returns, instead of searching for a free port forever. The dials go
// to an address no host owns, so every connection stays in SYN-SENT
// (the simulator never runs).
func TestDialFailsWhenPortsRunOut(t *testing.T) {
	f := newFixture(t, 17)
	nowhere := packet.AddrFrom4(10, 9, 9, 9)
	for i := 0; i < ephemeralPorts; i++ {
		f.cs.Dial(nowhere, 80, false, func(c *Conn, err error) { t.Fatalf("dial %d finished: %v", i, err) })
	}
	if f.cs.Conns() != ephemeralPorts {
		t.Fatalf("%d connections open, want %d", f.cs.Conns(), ephemeralPorts)
	}
	var got error
	calls := 0
	f.cs.Dial(nowhere, 80, false, func(c *Conn, err error) { got, calls = err, calls+1 })
	if calls != 1 || got != ErrNoPort {
		t.Fatalf("dial past the last free port: %d calls, err %v; want one, %v", calls, got, ErrNoPort)
	}
	if f.cs.Conns() != ephemeralPorts {
		t.Errorf("the failed dial left %d connections, want %d", f.cs.Conns(), ephemeralPorts)
	}
}

func TestAbortSendsRST(t *testing.T) {
	f := newFixture(t, 14)
	var serverClosed error
	f.ss.Listen(80, false, func(c *Conn) {
		c.OnClose(func(err error) { serverClosed = err })
	})
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f.sim.After(50*time.Millisecond, c.Abort)
	})
	f.sim.Run()
	if serverClosed != ErrReset {
		t.Errorf("server close err = %v, want ErrReset", serverClosed)
	}
}

func TestSimultaneousConnections(t *testing.T) {
	f := newFixture(t, 15)
	echoServer(t, f, 80, true)
	const conns = 20
	completed := 0
	for i := 0; i < conns; i++ {
		i := i
		f.cs.Dial(f.server.Addr(), 80, i%2 == 0, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			c.OnData(func(b []byte) { c.Close() })
			c.OnClose(func(err error) {
				if err == nil {
					completed++
				}
			})
			c.Write([]byte{byte(i)})
		})
	}
	f.sim.Run()
	if completed != conns {
		t.Errorf("completed %d of %d connections", completed, conns)
	}
}

func TestECNSetupSYNIsNotECTMarked(t *testing.T) {
	// RFC 3168 §6.1.1: the SYN itself must not be ECT-marked (footnote 1
	// of the paper relies on this).
	f := newFixture(t, 16)
	echoServer(t, f, 80, true)
	var synECN ecn.Codepoint = 0xF
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		d, err := packet.Decode(wire)
		if err == nil && d.TCP != nil && d.TCP.Flags&packet.TCPSyn != 0 && dir == netsim.TapOut {
			synECN = d.IP.ECN()
		}
	})
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err == nil {
			c.Close()
		}
	})
	f.sim.Run()
	if synECN != ecn.NotECT {
		t.Errorf("ECN-setup SYN marked %v, must be not-ECT", synECN)
	}
}
