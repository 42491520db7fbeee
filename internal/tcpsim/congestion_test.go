package tcpsim

import (
	"testing"

	"repro/internal/middlebox"
)

// bulkServer installs a listener that sends a large response on accept,
// so the congestion window actually binds. It returns a handle to the
// accepted server-side connection for sender-state inspection.
func bulkServer(t *testing.T, f *fixture, port uint16, size int) **Conn {
	t.Helper()
	var server *Conn
	_, err := f.ss.Listen(port, true, func(c *Conn) {
		server = c
		c.Write(make([]byte, size))
		c.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return &server
}

// TestECEHalvesWindowAndSetsCWR: CE marks on the data path must travel
// the full RFC 3168 feedback loop — receiver echoes ECE, sender halves
// its window and answers CWR.
func TestECEHalvesWindowAndSetsCWR(t *testing.T) {
	f := newFixture(t, 3)
	// Every ECT data segment from the server is CE-marked in transit.
	f.r2.AddPolicy(&middlebox.CEMarker{Probability: 1})
	serverRef := bulkServer(t, f, 80, 40*MSS)

	var clientConn *Conn
	got := 0
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if !c.ECNNegotiated() {
			t.Fatal("ECN not negotiated")
		}
		clientConn = c
		c.OnData(func(b []byte) { got += len(b) })
	})
	f.sim.Run()
	server := *serverRef

	if got != 40*MSS {
		t.Fatalf("received %d bytes, want %d", got, 40*MSS)
	}
	if clientConn.CEMarksSeen == 0 {
		t.Fatal("client saw no CE marks")
	}
	if server == nil {
		t.Fatal("server connection not found")
	}
	if server.ECESeen == 0 {
		t.Fatal("server saw no ECE echoes")
	}
	if server.CwndReductions == 0 {
		t.Fatal("server never reduced its congestion window")
	}
	if server.CWRSent == 0 {
		t.Fatal("server never answered ECE with CWR")
	}
	if server.cwnd >= initialCwnd {
		t.Fatalf("server cwnd %d did not shrink below initial %d", server.cwnd, initialCwnd)
	}
	// The reduction is once-per-window, not once-per-ECE.
	if server.CwndReductions >= server.ECESeen && server.ECESeen > 3 {
		t.Fatalf("reductions (%d) should be rarer than ECE echoes (%d)",
			server.CwndReductions, server.ECESeen)
	}
}

// TestCleanPathKeepsInitialWindow: without congestion the window only
// grows, and small transfers never see a reduction — the property that
// keeps uncongested campaign datasets byte-identical to the
// pre-congestion stack.
func TestCleanPathKeepsInitialWindow(t *testing.T) {
	f := newFixture(t, 4)
	serverRef := bulkServer(t, f, 80, 4*MSS)
	done := false
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.OnClose(func(error) { done = true })
	})
	f.sim.Run()
	server := *serverRef
	if !done {
		t.Fatal("transfer did not complete")
	}
	if server == nil {
		t.Fatal("server connection not found")
	}
	if server.CwndReductions != 0 || server.CWRSent != 0 {
		t.Fatalf("clean path saw reductions=%d cwr=%d", server.CwndReductions, server.CWRSent)
	}
	if server.cwnd < initialCwnd {
		t.Fatalf("clean-path cwnd %d below initial %d", server.cwnd, initialCwnd)
	}
}
