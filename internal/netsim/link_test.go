package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/ecn"
	"repro/internal/packet"
)

// sinkNode records deliveries for link-level tests. Delivered bytes are
// copied out before the buffer reference is released, per the ownership
// rules every Node follows.
type sinkNode struct {
	label    string
	received [][]byte
	times    []time.Duration
	sim      *Sim
}

func (s *sinkNode) Receive(b *packet.Buf, from *Link) {
	s.received = append(s.received, append([]byte(nil), b.Bytes()...))
	if s.sim != nil {
		s.times = append(s.times, s.sim.Now())
	}
	b.Release()
}
func (s *sinkNode) Label() string { return s.label }

func testWire(t testing.TB, cp ecn.Codepoint, payload int) *packet.Buf {
	t.Helper()
	b, err := packet.BuildUDPBuf(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, cp, 1, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLinkStatsFullLoss: at loss 1.0 every Send is counted and every
// packet is dropped; nothing reaches the peer and no event is queued.
func TestLinkStatsFullLoss(t *testing.T) {
	sim := NewSim(1)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
	l := newLink(sim, a, b, time.Millisecond, 0)
	l.loss[l.dir(a)] = 1.0

	const n = 50
	for i := 0; i < n; i++ {
		l.Send(a, testWire(t, ecn.NotECT, 8))
	}
	if sent, dropped := l.Stats(a); sent != n || dropped != n {
		t.Fatalf("Stats(a) = %d sent, %d dropped; want %d, %d", sent, dropped, n, n)
	}
	if sent, dropped := l.Stats(b); sent != 0 || dropped != 0 {
		t.Fatalf("reverse direction Stats = %d, %d; want 0, 0", sent, dropped)
	}
	if sim.pending() != 0 {
		t.Fatalf("%d events pending; fully lost traffic should schedule none", sim.pending())
	}
	sim.Run()
	if len(b.received) != 0 {
		t.Fatalf("%d packets delivered through a 100%% lossy link", len(b.received))
	}
}

// TestLinkDirPanicForeignNode: addressing a link from a node that is not
// an endpoint is a programming error and must panic with a message that
// names the offending node.
func TestLinkDirPanicForeignNode(t *testing.T) {
	sim := NewSim(1)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
	stranger := &sinkNode{label: "stranger"}
	l := newLink(sim, a, b, time.Millisecond, 0)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Send from a foreign node did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "not on link") || !strings.Contains(msg, "stranger") {
			t.Fatalf("panic message %q should name the foreign node", msg)
		}
	}()
	l.Send(stranger, testWire(t, ecn.NotECT, 8))
}

// TestLinkLossDeterminismAcrossReseed: the loss-draw sequence after
// Reseed(s) must equal the sequence of a fresh simulator seeded s —
// the property the sharded campaign engine's per-shard reseed relies on.
func TestLinkLossDeterminismAcrossReseed(t *testing.T) {
	pattern := func(sim *Sim) []bool {
		a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
		l := newLink(sim, a, b, 0, 0.5)
		var out []bool
		for i := 0; i < 200; i++ {
			before := len(b.received)
			l.Send(a, testWire(t, ecn.NotECT, 8))
			sim.Run()
			out = append(out, len(b.received) > before)
		}
		return out
	}

	reseeded := NewSim(12345) // seed discarded by Reseed below
	reseeded.RNG().Float64()  // consume some state first
	reseeded.Reseed(777)
	fresh := NewSim(777)

	a, b := pattern(reseeded), pattern(fresh)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss draw %d diverges after Reseed: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBottleneckSerializes: a finite-rate direction delivers packets at
// the serialization cadence, in order, and leaves the reverse direction
// untouched.
func TestBottleneckSerializes(t *testing.T) {
	sim := NewSim(1)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b", sim: sim}
	l := newLink(sim, a, b, 0, 0)
	// 10 kB/s: a 1000-byte wire packet takes 100ms on the wire.
	l.SetBottleneck(a, 10_000, 0, aqm.NewDropTail(16))

	const payload = 1000 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	for i := 0; i < 3; i++ {
		wire := testWire(t, ecn.NotECT, payload)
		if wire.Len() != 1000 {
			t.Fatalf("wire length %d, want 1000", wire.Len())
		}
		l.Send(a, wire)
	}
	sim.Run()
	if len(b.received) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(b.received))
	}
	for i, at := range b.times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
	if bn := l.bneck[l.dir(a)]; bn == nil || bn.q.Stats().Dequeued != 3 {
		t.Fatal("the bottleneck queue did not serve the three packets")
	}
	if l.bneck[l.dir(b)] != nil {
		t.Fatal("reverse direction should be unshaped")
	}
}

// TestBottleneckQueueDropsCountAsLinkDrops: packets rejected by the AQM
// discipline surface in the link's Stats dropped counter.
func TestBottleneckQueueDropsCountAsLinkDrops(t *testing.T) {
	sim := NewSim(1)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
	l := newLink(sim, a, b, 0, 0)
	l.SetBottleneck(a, 1_000, 0, aqm.NewDropTail(2))

	// Burst far beyond the 2-packet buffer before any event runs.
	const n = 10
	for i := 0; i < n; i++ {
		l.Send(a, testWire(t, ecn.NotECT, 100))
	}
	sent, dropped := l.Stats(a)
	if sent != n || dropped == 0 {
		t.Fatalf("Stats = %d sent, %d dropped; want %d sent and tail drops", sent, dropped, n)
	}
	sim.Run()
	if got := uint64(len(b.received)); got+dropped != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, dropped, n)
	}
}

// TestBottleneckBackgroundMarksForeground: with RED and background
// utilization above capacity, a standing queue builds and ECT foreground
// packets arrive CE-marked; higher utilization marks at least as much.
func TestBottleneckBackgroundMarksForeground(t *testing.T) {
	ceRatio := func(util float64) float64 {
		sim := NewSim(2015)
		a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
		l := newLink(sim, a, b, time.Millisecond, 0)
		l.SetBottleneck(a, 125_000, util, aqm.NewRED(50, sim.RNG()))

		// Paced ECT(0) foreground: one packet every 10ms for 20s.
		var tick func(i int)
		tick = func(i int) {
			if i >= 2000 {
				return
			}
			l.Send(a, testWire(t, ecn.ECT0, 100))
			sim.After(10*time.Millisecond, func() { tick(i + 1) })
		}
		tick(0)
		sim.Run()

		ce, ect := 0, 0
		for _, wire := range b.received {
			switch cp, _ := packet.WireECN(wire); cp {
			case ecn.CE:
				ce++
			case ecn.ECT0, ecn.ECT1:
				ect++
			}
		}
		if ce+ect == 0 {
			t.Fatalf("util %.1f delivered no ECT-capable packets", util)
		}
		return float64(ce) / float64(ce+ect)
	}

	low, mid, high := ceRatio(0.2), ceRatio(0.9), ceRatio(1.4)
	if !(low <= mid && mid <= high) {
		t.Fatalf("CE ratio not monotone in utilization: %.3f, %.3f, %.3f", low, mid, high)
	}
	if high == 0 {
		t.Fatal("overloaded bottleneck never CE-marked foreground")
	}
	if low > 0.05 {
		t.Fatalf("lightly loaded bottleneck CE ratio %.3f, want ≈0", low)
	}
}

// TestBottleneckDrainsToCompletion: background phantoms must never keep
// the event loop alive — a finished foreground load means a finished
// simulation.
func TestBottleneckDrainsToCompletion(t *testing.T) {
	sim := NewSim(7)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
	l := newLink(sim, a, b, time.Millisecond, 0)
	l.SetBottleneck(a, 50_000, 1.2, aqm.NewRED(32, sim.RNG()))
	for i := 0; i < 20; i++ {
		l.Send(a, testWire(t, ecn.ECT0, 200))
	}
	done := false
	sim.After(time.Hour, func() { done = true })
	sim.Run()
	if !done {
		t.Fatal("simulation did not drain")
	}
	if sim.pending() != 0 {
		t.Fatalf("%d events still pending after Run", sim.pending())
	}
}

// TestBottleneckServesQueueAfterForegroundDrop: a foreground packet
// rejected by a full queue must still kick the idle transmitter, or the
// reconstructed background backlog would sit forever and blackhole
// every later foreground packet behind a permanently full buffer.
func TestBottleneckServesQueueAfterForegroundDrop(t *testing.T) {
	sim := NewSim(11)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
	l := newLink(sim, a, b, time.Millisecond, 0)
	// Saturated background and a tiny buffer: after a long idle gap the
	// reconstructed backlog fills the queue before the foreground
	// packet is offered, so the first Send of each burst is tail-dropped.
	l.SetBottleneck(a, 50_000, 2.0, aqm.NewDropTail(8))

	delivered := func() int { return len(b.received) }
	l.Send(a, testWire(t, ecn.NotECT, 100)) // activates background
	sim.RunUntil(2 * time.Second)
	for i := 0; i < 10; i++ {
		l.Send(a, testWire(t, ecn.NotECT, 100))
		sim.RunUntil(sim.Now() + 2*time.Second)
	}
	sim.Run()
	if delivered() == 0 {
		t.Fatal("foreground permanently blackholed behind stranded background backlog")
	}
	if sim.pending() != 0 {
		t.Fatalf("%d events pending after Run", sim.pending())
	}
}

// TestSetBottleneckRefuses: a direction takes one bottleneck, once,
// with a queue and a positive rate. Anything else panics before it can
// reach the lazy drive, whose replay a replaced transmitter would
// leave pointing at the old one.
func TestSetBottleneckRefuses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		attach func(sim *Sim, l *Link, from Node)
	}{
		{"second attach", func(sim *Sim, l *Link, from Node) {
			l.SetBottleneck(from, 1000, 0, aqm.NewRED(8, sim.RNG()))
			l.SetBottleneck(from, 1000, 0, aqm.NewRED(8, sim.RNG()))
		}},
		{"nil queue", func(sim *Sim, l *Link, from Node) {
			l.SetBottleneck(from, 1000, 0, nil)
		}},
		{"zero rate", func(sim *Sim, l *Link, from Node) {
			l.SetBottleneck(from, 0, 0, aqm.NewRED(8, sim.RNG()))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSim(1)
			a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
			l := newLink(sim, a, b, time.Millisecond, 0)
			defer func() {
				if recover() == nil {
					t.Fatal("SetBottleneck did not panic")
				}
			}()
			tc.attach(sim, l, a)
		})
	}
}

// TestNegativeLinkDelayClamped: a link built with a negative delay
// delivers after zero, the way After treats a negative delay — a lane
// stays sorted only if nothing is due before now.
func TestNegativeLinkDelayClamped(t *testing.T) {
	s := NewSim(1)
	sink := &sinkNode{label: "sink", sim: s}
	src := &sinkNode{label: "src"}
	l := newLink(s, src, sink, -time.Second, 0)
	if l.delay[l.dir(src)] != 0 {
		t.Fatalf("delay = %v, want 0", l.delay[l.dir(src)])
	}
	s.After(time.Millisecond, func() { l.Send(src, testWire(t, ecn.NotECT, 8)) })
	s.Run()
	if len(sink.times) != 1 || sink.times[0] != time.Millisecond {
		t.Errorf("arrivals at %v, want one at 1ms", sink.times)
	}
}
