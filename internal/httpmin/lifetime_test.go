package httpmin

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/tcpsim"
)

// Probe shells (getRun) are recycled per simulation. finish() reports
// the result but tcpsim may still deliver callbacks to the shell, so it
// is released later; each test here fails on a pool that releases at
// finish().

// TestOfflineHostShellOutlivesDeadline: against an offline host the 90 s
// deadline reports ErrTimeout, but the dial's own SYN budget runs to
// 127 s and reports to the same shell. A second Get started in between
// — still waiting at 127 s — must not be the one that hears it.
func TestOfflineHostShellOutlivesDeadline(t *testing.T) {
	f := newHTTPFixture(t, 8)
	f.server.SetOnline(false)
	type outcome struct {
		calls int
		at    time.Duration
		err   error
	}
	var first, second outcome
	Get(f.cs, f.server.Addr(), Port, "/", false, func(r GetResult) {
		first = outcome{first.calls + 1, f.sim.Now(), r.Err}
		if first.calls > 1 {
			return
		}
		// Takes whatever shell is free at 90 s and is in flight until 180 s.
		Get(f.cs, f.server.Addr(), Port, "/", true, func(r GetResult) {
			second = outcome{second.calls + 1, f.sim.Now(), r.Err}
		})
	})
	f.sim.Run()
	if first.calls != 1 || first.at != GetTimeout || !errors.Is(first.err, tcpsim.ErrTimeout) {
		t.Errorf("first Get: %+v, want one ErrTimeout at %v", first, GetTimeout)
	}
	if second.calls != 1 || second.at != 2*GetTimeout || !errors.Is(second.err, tcpsim.ErrTimeout) {
		t.Errorf("second Get: %+v, want one ErrTimeout at %v (127 s is the first dial giving up)", second, 2*GetTimeout)
	}
	checkShellsScrubbed(t, f.cs, 2)
}

// TestBytesAfterResponseStayWithTheirProbe: a server that keeps talking
// after a complete response delivers those bytes to the connection's
// shell after finish() has run — and after done has started the next
// probe. They must not be parsed as the next probe's response.
func TestBytesAfterResponseStayWithTheirProbe(t *testing.T) {
	f := newHTTPFixture(t, 9)
	redirect := PoolHandler(nil).Marshal()
	stray := (&Response{StatusCode: 404}).Marshal()
	f.ss.Listen(Port, false, func(c *tcpsim.Conn) {
		c.OnData(func([]byte) {
			c.Write(redirect)
			c.Write(stray) // its own segment, right behind the response
			c.Close()
		})
	})
	var statuses []int
	Get(f.cs, f.server.Addr(), Port, "/", false, func(r GetResult) {
		statuses = append(statuses, r.Response.StatusCode)
		if len(statuses) > 1 {
			return
		}
		Get(f.cs, f.server.Addr(), Port, "/", false, func(r GetResult) {
			statuses = append(statuses, r.Response.StatusCode)
		})
	})
	f.sim.Run()
	if fmt.Sprint(statuses) != "[302 302]" {
		t.Errorf("statuses = %v, want each probe to see its own 302 once", statuses)
	}
	checkShellsScrubbed(t, f.cs, 2)
}

// TestLargeBodiesUnderLossAfterReuse is TestGetUnderLoss with
// TestLargeResponseBody's multi-segment body: sequential probes through
// the same recycled connection and probe shells, over a lossy link, each
// for a different body. Retransmissions must carry that probe's bytes.
func TestLargeBodiesUnderLossAfterReuse(t *testing.T) {
	f := newHTTPFixture(t, 10)
	body := func(path string) []byte {
		b := make([]byte, 5000+len(path))
		for i := range b {
			b[i] = path[i%len(path)] + byte(i/len(path))
		}
		return b
	}
	Serve(f.ss, Port, true, func(req *Request) *Response {
		return &Response{StatusCode: 200, Body: body(req.Path)}
	})
	f.client.Uplink().SetLossBoth(0.2)
	const tries = 20
	intact := 0
	var run func(i int)
	run = func(i int) {
		if i == tries {
			return
		}
		path := fmt.Sprintf("/body/%d", i)
		Get(f.cs, f.server.Addr(), Port, path, true, func(r GetResult) {
			if r.Err == nil {
				if !bytes.Equal(r.Response.Body, body(path)) {
					t.Errorf("%s: body corrupted (%d bytes)", path, len(r.Response.Body))
				}
				intact++
			}
			run(i + 1)
		})
	}
	run(0)
	f.sim.Run()
	if intact < tries*3/4 {
		t.Errorf("only %d/%d bodies arrived under 20%% loss", intact, tries)
	}
}

// checkShellsScrubbed: every shell is back on the simulation's free list, at
// most max of them were ever needed, and none keeps a reference a stale
// callback could use.
func checkShellsScrubbed(t *testing.T, stack *tcpsim.Stack, max int) {
	t.Helper()
	n := 0
	for g := shellsOf(stack).gets; g != nil; g = g.next {
		if n++; n > max {
			break
		}
		if g.pool != nil || g.sim != nil || g.done != nil || g.conn != nil || g.res.Response != nil || g.resp.Body != nil {
			t.Errorf("released shell keeps references: %+v", g)
		}
	}
	if n == 0 || n > max {
		t.Errorf("%d probe shells on the free list, want 1..%d", n, max)
	}
}
