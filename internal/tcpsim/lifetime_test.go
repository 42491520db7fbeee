package tcpsim

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/middlebox"
	"repro/internal/packet"
)

// Connection shells are recycled through the simulation's Pool, which
// every stack on the simulator shares; these tests pin what survives
// reuse and when a shell may be handed out again.

// freeShells walks a pool's free list.
func freeShells(t *testing.T, p *Pool) []*Conn {
	t.Helper()
	var out []*Conn
	seen := map[*Conn]bool{}
	for c := p.free; c != nil; c = c.nextFree {
		if seen[c] {
			t.Fatal("shell is on the free list twice")
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// holdsExactly reports whether shells are exactly want, in any order.
func holdsExactly(shells []*Conn, want ...*Conn) bool {
	if len(shells) != len(want) {
		return false
	}
	for _, w := range want {
		if !slices.Contains(shells, w) {
			return false
		}
	}
	return true
}

// TestReusedConnStartsClean dirties every piece of per-connection state
// (CE marks, ECE echoes, window reductions, retransmissions, backed-off
// RTO, callbacks, listener) and checks the next connection on each end
// sees none of it — whichever of the two shells it is handed: the
// stacks share one pool.
func TestReusedConnStartsClean(t *testing.T) {
	f := newFixture(t, 40)
	marker := &middlebox.CEMarker{Probability: 1}
	f.r2.AddPolicy(marker)
	f.r1.AddPolicy(marker)
	serverRef := bulkServer(t, f, 80, 20*MSS)
	var client *Conn
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = c
		c.OnData(func([]byte) {})
		c.OnClose(func(error) {})
		// Lose the request once, so the client retransmits and backs off.
		f.client.Uplink().SetLossBoth(1)
		c.Write(bytes.Repeat([]byte("dirty"), 100))
		f.sim.After(1500*time.Millisecond, func() { f.client.Uplink().SetLossBoth(0) })
	})
	f.sim.Run()
	server := *serverRef
	if client.Retransmits == 0 || client.CEMarksSeen == 0 || client.BytesReceived == 0 ||
		server.ECESeen == 0 || server.CWRSent == 0 || server.CwndReductions == 0 || server.cwnd == initialCwnd {
		t.Fatal("first connection left nothing to clean")
	}
	if free := freeShells(t, f.cs.Pool()); !holdsExactly(free, client, server) {
		t.Fatalf("closed connections not on the pool's free list: %d shells", len(free))
	}
	if f.ss.Pool() != f.cs.Pool() {
		t.Fatal("two stacks on one simulator have separate pools")
	}
	// Released shells are scrubbed: a stale holder hits nil, not the
	// next connection's state.
	for _, c := range []*Conn{client, server} {
		if c.stack != nil || c.listener != nil || c.dialDone != nil || c.onData != nil || c.onClose != nil || c.st != stateClosed {
			t.Errorf("released shell keeps references or is not CLOSED (%v)", c.st)
		}
	}

	// No ECN this time, so the markers have nothing to mark.
	var accepted *Conn
	f.ss.listener(80).accept = func(c *Conn) { accepted = c }
	checked := false
	dialing := f.cs.Pool().free // the shell Dial takes
	other := client
	if dialing == client {
		other = server
	}
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("second dial: %v", err)
		}
		if c != dialing || accepted != nil && accepted != other {
			t.Error("second connection did not reuse the shells")
		}
		checkClean(t, "client", c)
		if c.listener != nil || c.onData != nil || c.onClose != nil || c.requestECN || c.ecnNegotiated {
			t.Error("reused client shell inherited a listener, callbacks or ECN state")
		}
		checked = true
		c.Close()
	})
	// The SYN is on the wire: the shell was reset when Dial took it.
	checkClean(t, "dialing", dialing)
	f.sim.Run()
	if !checked || accepted != other {
		t.Fatalf("second exchange: checked=%v accepted=%p want %p", checked, accepted, other)
	}
}

func checkClean(t *testing.T, who string, c *Conn) {
	t.Helper()
	if c.Retransmits != 0 || c.CEMarksSeen != 0 || c.ECESeen != 0 || c.CWRSent != 0 ||
		c.CwndReductions != 0 || c.BytesReceived != 0 {
		t.Errorf("%s: reused shell starts with counters rtx=%d ce=%d ece=%d cwr=%d reductions=%d bytes=%d", who,
			c.Retransmits, c.CEMarksSeen, c.ECESeen, c.CWRSent, c.CwndReductions, c.BytesReceived)
	}
	if c.cwnd != initialCwnd || c.rto != time.Second || c.synBackoff != time.Second || c.stalls != 0 {
		t.Errorf("%s: cwnd=%d rto=%v synBackoff=%v stalls=%d", who, c.cwnd, c.rto, c.synBackoff, c.stalls)
	}
	if len(c.sendBuf) != 0 || c.sendOff != 0 || len(c.rtxQueue) != 0 ||
		c.echoCE || c.cwrPending || c.closeRequested || c.finSent {
		t.Errorf("%s: reused shell keeps stream state: %d buffered, %d queued", who, len(c.sendBuf), len(c.rtxQueue))
	}
	if c.recover != c.iss || c.sndNxt-c.iss > 1 {
		t.Errorf("%s: sequence space not re-seeded: iss=%d sndNxt=%d recover=%d", who, c.iss, c.sndNxt, c.recover)
	}
}

// TestSendBufReuseUnderLoss runs connection after connection through the
// same two shells over lossy links. Each sends its own multi-segment
// pattern in two writes — the second after the first is acknowledged, so
// it rewinds the buffer — and every retransmission must still carry the
// bytes first sent at that sequence number, not whatever the reused
// array held before or since.
func TestSendBufReuseUnderLoss(t *testing.T) {
	f := newFixture(t, 41)
	var serverGot []byte
	f.ss.Listen(80, true, func(c *Conn) {
		c.OnData(func(b []byte) {
			serverGot = append(serverGot, b...)
			c.Write(b)
		})
	})
	f.client.Uplink().SetLossBoth(0.2)
	f.server.Uplink().SetLossBoth(0.2)

	const rounds = 12
	var retransmits uint64
	var round func(i int)
	round = func(i int) {
		if i == rounds {
			return
		}
		// Position- and round-dependent bytes: a segment resent from the
		// wrong offset or the wrong lifetime cannot match.
		want := make([]byte, 5*MSS+5+17*i)
		for j := range want {
			want[j] = byte(j*7 + j/251 + i)
		}
		first, second := want[:3*MSS+17*i], want[3*MSS+17*i:]
		serverGot = serverGot[:0]
		var clientGot []byte
		f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
			if err != nil {
				t.Fatalf("round %d: dial: %v", i, err)
			}
			c.OnData(func(b []byte) {
				clientGot = append(clientGot, b...)
				switch len(clientGot) {
				case len(first):
					c.Write(second) // everything so far is acknowledged
				case len(want):
					c.Close()
				}
			})
			c.OnClose(func(err error) {
				retransmits += c.Retransmits
				if !bytes.Equal(serverGot, want) || !bytes.Equal(clientGot, want) {
					t.Fatalf("round %d: stream corrupted (server %d bytes, client %d, want %d; close err %v)",
						i, len(serverGot), len(clientGot), len(want), err)
				}
				round(i + 1)
			})
			c.Write(first)
		})
	}
	round(0)
	f.sim.Run()
	if retransmits == 0 {
		t.Error("no retransmissions: the test exercised nothing")
	}
	// A lossy close can outlive the next dial, so not every round finds a
	// shell waiting — but most must.
	if n := len(freeShells(t, f.cs.Pool())); n > rounds {
		t.Errorf("%d rounds of two connection ends used %d shells: no reuse", rounds, n)
	}
}

// TestAbortInCallbacksReleasesOnce: Abort from inside dialDone and from
// inside onData tears down while the stack is still in that
// connection's receive path; the shell must reach the free list exactly
// once, or two later connections would share it.
func TestAbortInCallbacksReleasesOnce(t *testing.T) {
	f := newFixture(t, 42)
	f.ss.Listen(80, false, func(c *Conn) {
		c.OnData(func(b []byte) {
			c.Write(b)
			c.Abort()
			c.Abort()
		})
	})
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Abort() // inside dialDone
		c.Abort()
	})
	f.cs.Dial(f.server.Addr(), 80, false, func(c *Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func([]byte) { c.Abort() }) // inside onData, both ends
		c.Write([]byte("x"))
	})
	f.sim.Run()
	for name, s := range map[string]*Stack{"client": f.cs, "server": f.ss} {
		if len(s.conns) != 0 {
			t.Errorf("%s: %d connections leaked", name, len(s.conns))
		}
	}
	if n := len(freeShells(t, f.cs.Pool())); n != 4 {
		t.Errorf("%d shells on the free list, want 4", n)
	}
}

// TestStackResetDropsOpenConns: Reset on stacks holding an established
// connection empties the demux tables without running callbacks, puts
// the shells on the pool for the next dial, and leaves a stale
// holder with a CLOSED connection whose entry points are no-ops.
func TestStackResetDropsOpenConns(t *testing.T) {
	f := newFixture(t, 41)
	var server *Conn
	if _, err := f.ss.Listen(80, true, func(c *Conn) {
		server = c
		c.OnClose(func(error) { t.Error("server onClose ran during Reset") })
	}); err != nil {
		t.Fatal(err)
	}
	var client *Conn
	f.cs.Dial(f.server.Addr(), 80, true, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = c
		c.OnClose(func(error) { t.Error("client onClose ran during Reset") })
	})
	f.sim.Run()
	if client == nil || server == nil || len(f.cs.conns) != 1 || len(f.ss.conns) != 1 {
		t.Fatal("no established connection to reset")
	}

	f.sim.Reset()
	f.cs.Reset()
	f.ss.Reset()
	if len(f.cs.conns) != 0 || len(f.ss.conns) != 0 {
		t.Errorf("demux tables hold %d and %d connections after Reset", len(f.cs.conns), len(f.ss.conns))
	}
	if free := freeShells(t, f.cs.Pool()); !holdsExactly(free, client, server) {
		t.Errorf("dropped connections not on the pool's free list: %d shells", len(free))
	}
	if f.cs.SegmentsOut != 0 || f.ss.SegmentsIn != 0 || f.cs.ephemeral != 0 {
		t.Error("counters or port cursor survived Reset")
	}
	if client.State() != "CLOSED" {
		t.Errorf("stale holder sees state %s, want CLOSED", client.State())
	}
	client.Write([]byte("late"))
	client.Close()
	client.Abort()
	f.sim.Run()
	if f.cs.SegmentsOut != 0 {
		t.Errorf("a stale connection sent %d segments after Reset", f.cs.SegmentsOut)
	}
}

// TestResetReleasesInCreationOrder: Reset releases a stack's leftover
// connections in the order they were made, so the pool hands out the
// same shells in the same order on every run — as the Pool's contract
// promises. Each run opens five connections that stay in SYN-SENT,
// resets, dials five more and records which of the first five shells
// each reuses.
func TestResetReleasesInCreationOrder(t *testing.T) {
	run := func() []int {
		f := newFixture(t, 43)
		nowhere := packet.AddrFrom4(10, 9, 9, 9)
		first := map[*Conn]int{}
		dial := func(record func(*Conn)) {
			for range 5 {
				f.cs.Dial(nowhere, 80, false, func(*Conn, error) {})
				record(f.cs.conns[len(f.cs.conns)-1])
			}
		}
		dial(func(c *Conn) { first[c] = len(first) })
		f.sim.Reset()
		f.cs.Reset()
		var reused []int
		dial(func(c *Conn) { reused = append(reused, first[c]) })
		return reused
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d reused shells %v, run 0 %v", i+1, got, want)
		}
	}
}
