package tcpsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Sequence-number comparison properties (wraparound arithmetic).
func TestSeqComparisonProperties(t *testing.T) {
	// Antisymmetry: a<b implies !(b<a); reflexivity of LEQ.
	f := func(a, b uint32) bool {
		if seqLT(a, b) && seqLT(b, a) {
			return false
		}
		if !seqLEQ(a, a) {
			return false
		}
		// Consistency: LT implies LEQ.
		if seqLT(a, b) && !seqLEQ(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSeqWraparound(t *testing.T) {
	// Near the wrap point, "later" sequence numbers compare greater.
	if !seqLT(0xFFFFFF00, 0x00000010) {
		t.Error("wraparound comparison broken")
	}
	if seqLEQ(0x00000010, 0xFFFFFF00) {
		t.Error("wrapped LEQ inverted")
	}
}

func TestSimultaneousClose(t *testing.T) {
	f := newFixture(t, 30)
	var serverConn *Conn
	serverClosed, clientClosed := false, false
	f.ss.Listen(80, false, func(c *Conn) {
		serverConn = c
		c.OnClose(func(err error) { serverClosed = err == nil })
	})
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnClose(func(err error) { clientClosed = err == nil })
		// Let the handshake settle, then both sides close in the same
		// instant: the FIN packets cross on the wire.
		f.sim.After(50*time.Millisecond, func() {
			c.Close()
			serverConn.Close()
		})
	})
	f.sim.Run()
	if !clientClosed || !serverClosed {
		t.Errorf("simultaneous close: client=%v server=%v", clientClosed, serverClosed)
	}
	if len(f.cs.conns) != 0 || len(f.ss.conns) != 0 {
		t.Errorf("leaked connections: %d/%d", len(f.cs.conns), len(f.ss.conns))
	}
}

func TestDuplicateSYNGetsSYNACKAgain(t *testing.T) {
	f := newFixture(t, 31)
	f.ss.Listen(80, true, nil)

	synacks := 0
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		if dir != netsim.TapIn {
			return
		}
		d, err := packet.Decode(wire)
		if err == nil && d.TCP != nil && d.TCP.Has(packet.TCPSyn|packet.TCPAck) {
			synacks++
		}
	})

	// Craft a raw SYN twice from the same 4-tuple (bypassing Dial so the
	// client stack won't ACK and complete the handshake).
	syn := &packet.TCPHeader{SrcPort: 50001, DstPort: 80, Seq: 1000, Flags: packet.TCPSyn}
	wire1, _ := packet.BuildTCPBuf(f.client.Addr(), f.server.Addr(), syn, 64, 0, 1, nil)
	wire2, _ := packet.BuildTCPBuf(f.client.Addr(), f.server.Addr(), syn, 64, 0, 2, nil)
	f.client.SendBuf(wire1)
	f.sim.RunUntil(f.sim.Now() + 100*time.Millisecond)
	f.client.SendBuf(wire2)
	f.sim.RunUntil(f.sim.Now() + 100*time.Millisecond)

	if synacks < 2 {
		t.Errorf("SYN-ACKs = %d; duplicate SYN must be re-answered", synacks)
	}
}

func TestWriteAfterCloseDropped(t *testing.T) {
	f := newFixture(t, 32)
	echoServer(t, f, 80, false)
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		c.Write([]byte("too late")) // must be silently ignored
	})
	f.sim.Run()
	// The segment must never appear: echo server saw nothing.
}

func TestStackCountersAdvance(t *testing.T) {
	f := newFixture(t, 33)
	echoServer(t, f, 80, false)
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func([]byte) { c.Close() })
		c.Write([]byte("x"))
	})
	f.sim.Run()
	if f.cs.SegmentsOut == 0 || f.cs.SegmentsIn == 0 {
		t.Errorf("client counters: out=%d in=%d", f.cs.SegmentsOut, f.cs.SegmentsIn)
	}
	if f.ss.SegmentsIn == 0 {
		t.Errorf("server counters: in=%d", f.ss.SegmentsIn)
	}
}

func TestConnAccessors(t *testing.T) {
	f := newFixture(t, 34)
	echoServer(t, f, 80, true)
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if c.key.remote != f.server.Addr() {
			t.Errorf("remote = %v", c.key.remote)
		}
		if c.key.localPort < 49152 {
			t.Errorf("local port = %d", c.key.localPort)
		}
		if c.State() != "ESTABLISHED" {
			t.Errorf("State = %q", c.State())
		}
		c.Close()
	})
	f.sim.Run()
}

func TestBrokenECEListenerIgnoresCE(t *testing.T) {
	// A broken listener's connection records the CE marks a router
	// puts on the client's data but never echoes ECE. Without the CE
	// count the test would pass on a path that marks nothing.
	f := newFixture(t, 35)
	var server *Conn
	l, _ := f.ss.Listen(80, true, func(c *Conn) {
		server = c
		c.OnData(func(b []byte) { c.Write(b) })
	})
	l.BrokenECE = true
	f.r1.AddPolicy(&middlebox.CEMarker{Probability: 1})

	sawECE := false
	f.client.AddTap(func(dir netsim.TapDirection, at time.Duration, wire []byte) {
		if dir != netsim.TapIn {
			return
		}
		d, err := packet.Decode(wire)
		if err == nil && d.TCP != nil && d.TCP.Flags&packet.TCPEce != 0 && d.TCP.Flags&packet.TCPSyn == 0 {
			sawECE = true
		}
	})
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func([]byte) { c.Close() })
		c.Write([]byte("ce-marked probe"))
	})
	f.sim.Run()
	if server == nil || server.CEMarksSeen == 0 {
		t.Fatal("no CE mark reached the broken-ECE server: the test proves nothing")
	}
	if sawECE {
		t.Error("broken-ECE server echoed ECE")
	}
}
