package netsim

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/ecn"
	"repro/internal/packet"
)

// BenchmarkSimSchedule runs the mixed near/far timer workload
// (ScheduleBenchWorkload, shared with bench/'s scheduler kernel) on the
// lanes and the heap scheduler. Timers take the heap on both, so the
// two time the same path; both stay at 0 allocs/op
// (TestSimScheduleAllocFree).
func BenchmarkSimSchedule(b *testing.B) {
	for _, sched := range []Scheduler{SchedLanes, SchedHeap} {
		b.Run("sched="+sched.Name(), func(b *testing.B) {
			s := NewSimSched(1, sched)
			ScheduleBenchWorkload(s, 4096) // warm slab, free list and heap
			b.ReportAllocs()
			b.ResetTimer()
			ScheduleBenchWorkload(s, b.N)
		})
	}
}

// BenchmarkSimScheduleSparse runs the same pair on the sparse-timeline
// kernel (ScheduleBenchWorkloadSparse): a near-empty pending set with
// whole windows between instants, the shape real campaigns spend most
// of their virtual time in. Also 0 allocs/op (TestSimScheduleAllocFree).
func BenchmarkSimScheduleSparse(b *testing.B) {
	for _, sched := range []Scheduler{SchedLanes, SchedHeap} {
		b.Run("sched="+sched.Name(), func(b *testing.B) {
			s := NewSimSched(1, sched)
			ScheduleBenchWorkloadSparse(s, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			ScheduleBenchWorkloadSparse(s, b.N)
		})
	}
}

// TestSimScheduleAllocFree pins the scheduler hot path at zero
// allocations per event on both schedulers once pools are warm, on the
// mixed and the sparse timeline alike. A batch may allocate only what a
// one-event batch does: the sparse kernel's state and its bound chain
// step, once a call.
func TestSimScheduleAllocFree(t *testing.T) {
	for _, workload := range []struct {
		name string
		run  func(*Sim, int)
	}{{"mixed", ScheduleBenchWorkload}, {"sparse", ScheduleBenchWorkloadSparse}} {
		for _, sched := range []Scheduler{SchedLanes, SchedHeap} {
			s := NewSimSched(1, sched)
			workload.run(s, 8192) // warm up
			setup := testing.AllocsPerRun(10, func() { workload.run(s, 1) })
			if allocs := testing.AllocsPerRun(10, func() { workload.run(s, 1024) }); allocs > setup {
				t.Errorf("%s scheduler, %s timeline: %.1f allocs per 1024-event batch, want the %.0f of a one-event batch",
					sched.Name(), workload.name, allocs, setup)
			}
		}
	}
}

// BenchmarkEventLoop times the event loop per event on the production
// scheduler: timers, which take the heap, and packet deliveries over
// links of four delays, which ride the lanes — the path nearly every
// event of a campaign takes.
func BenchmarkEventLoop(b *testing.B) {
	b.Run("timers", func(b *testing.B) {
		s := NewSim(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(time.Duration(i%1000)*time.Microsecond, func() {})
			if i%1024 == 0 {
				s.Run()
			}
		}
		s.Run()
	})
	b.Run("deliveries", func(b *testing.B) {
		s := NewSim(1)
		sink := &discardNode{"sink"}
		var links [4]*Link
		for i, d := range []time.Duration{0, 500 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
			links[i] = newLink(s, &discardNode{"src"}, sink, d, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			links[i&3].send(0, packet.NewBuf())
			if i%1024 == 0 {
				s.Run()
			}
		}
		s.Run()
	})
}

// routerForward is the bare forwarding path at the smallest packet the
// campaign sends — the shape of the bench kernel behind
// netsim.forward_ns_per_hop: one host sends 48-byte UDP datagrams in
// bursts of 64 through a chain of five routers to another host, 1 ms
// links, no loss, no queues, no middleboxes.
type routerForward struct {
	sim       *Sim
	h1, h2    *Host
	payload   []byte
	delivered int
}

const forwardRouters, forwardBurst = 5, 64

func newRouterForward(tb testing.TB) *routerForward {
	k := &routerForward{sim: NewSim(1), payload: make([]byte, 48)}
	_, k.h1, k.h2, _ = lineTopology(tb, k.sim, forwardRouters, time.Millisecond)
	k.h2.BindUDP(123, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { k.delivered++ })
	k.send(4 * forwardBurst) // warm the buffer pool and the lanes
	return k
}

// send forwards packets end to end, in bursts, each burst run to
// quiescence.
func (k *routerForward) send(packets int) {
	for sent := 0; sent < packets; sent += forwardBurst {
		for i := 0; i < min(forwardBurst, packets-sent); i++ {
			k.h1.SendUDP(k.h2.Addr(), 40000, 123, 64, ecn.ECT0, k.payload)
		}
		k.sim.Run()
	}
}

// BenchmarkRouterForward: one op is one packet end to end (six link
// events); ns/hop divides by the five routers. It stays at 0 allocs/op
// (TestRouterForwardAllocFree).
func BenchmarkRouterForward(b *testing.B) {
	k := newRouterForward(b)
	k.delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	k.send(b.N)
	b.StopTimer()
	if k.delivered != b.N {
		b.Fatalf("delivered %d of %d", k.delivered, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*forwardRouters), "ns/hop")
}

// TestRouterForwardAllocFree pins the forwarding path at zero
// allocations per packet once the pools are warm.
func TestRouterForwardAllocFree(t *testing.T) {
	k := newRouterForward(t)
	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(20, func() { k.send(4 * forwardBurst) }); allocs != 0 {
		t.Errorf("%.1f allocs per %d forwarded packets, want 0", allocs, 4*forwardBurst)
	}
}

// icmpRoundTrip is the traceroute exchange under the forwarding kernel:
// h1 sends UDP probes towards h2 with a TTL that expires at the third of
// five routers, which quotes each into a time-exceeded reply; h1's ICMP
// handler reads the quotation where it lies. Also, every eighth probe
// goes all the way to h2, which answers port-unreachable.
type icmpRoundTrip struct {
	sim      *Sim
	h1, h2   *Host
	payload  []byte
	answered int
	ect      int
}

func newICMPRoundTrip(tb testing.TB) *icmpRoundTrip {
	k := &icmpRoundTrip{sim: NewSim(1), payload: make([]byte, 2)}
	_, k.h1, k.h2, _ = lineTopology(tb, k.sim, 5, time.Millisecond)
	k.h2.RespondPortUnreachable = true
	k.h1.OnICMP(func(_ *Host, _ packet.IPv4Header, msg packet.ICMPMessage) {
		quoted, transport, err := msg.Quotation()
		if err != nil || len(transport) < 4 {
			return
		}
		k.answered++
		if quoted.ECN() == ecn.ECT0 {
			k.ect++
		}
	})
	return k
}

func (k *icmpRoundTrip) run(tb testing.TB, probes int) {
	const burst = 64
	k.answered, k.ect = 0, 0
	for sent := 0; sent < probes; sent += burst {
		for i := sent; i < min(sent+burst, probes); i++ {
			ttl := uint8(3)
			if i%8 == 7 {
				ttl = 64
			}
			k.h1.SendUDP(k.h2.Addr(), 40000, 33434, ttl, ecn.ECT0, k.payload)
		}
		k.sim.Run()
	}
	if k.answered != probes || k.ect != probes {
		tb.Fatalf("%d of %d probes answered, %d quoted ECT(0)", k.answered, probes, k.ect)
	}
}

// BenchmarkICMPRoundTrip is one probe → ICMP error → handler exchange
// per op. The router quotes the dropped datagram straight into the
// reply's pooled buffer and the host parses the reply without copying
// its body, so like BenchmarkRouterForward it stays at 0 allocs/op
// (TestICMPRoundTripAllocFree in tier-1).
func BenchmarkICMPRoundTrip(b *testing.B) {
	k := newICMPRoundTrip(b)
	k.run(b, 256) // warm the buffer pool and the lanes
	b.ReportAllocs()
	b.ResetTimer()
	k.run(b, b.N)
}

// TestICMPRoundTripAllocFree pins the ICMP error path — TTL expiry at a
// router, port-unreachable at a host, the receive-side parse and the
// quotation read — at zero allocations per exchange.
func TestICMPRoundTripAllocFree(t *testing.T) {
	k := newICMPRoundTrip(t)
	k.run(t, 256)
	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(20, func() { k.run(t, 64) }); allocs != 0 {
		t.Errorf("%.1f allocs per 64 ICMP round trips, want 0", allocs)
	}
}

func BenchmarkComputeRoutes(b *testing.B) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	const nr = 200
	routers := make([]*Router, nr)
	for i := range routers {
		routers[i] = n.AddRouter("r", packet.AddrFrom4(10, byte(i>>8), byte(i), 1), uint32(i))
	}
	for i := 1; i < nr; i++ {
		n.Connect(routers[i], routers[i/2], 0, 0) // binary-tree fabric
		if i%7 == 0 {
			n.Connect(routers[i], routers[(i*3)%nr], 0, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.ComputeRoutes(); err != nil {
			b.Fatal(err)
		}
	}
}

// lazyTransit is the congested-transit scenario's replay in miniature:
// three same-rate RED bottlenecks (10 Mbit/s, 85 % background load,
// 50-packet queues), each kept alive by a foreground packet every
// 10 ms, and a 2 ms timer chain standing in for the rest of a
// campaign's events — about one event per four boundaries, the paper-
// scale transit campaign's ratio — cutting replay runs short the way
// a busy event loop cuts them.
type lazyTransit struct {
	sim   *Sim
	a     *discardNode
	links [3]*Link
	wire  []byte
	tick  func()
}

// discardNode releases everything it receives.
type discardNode struct{ label string }

func (d *discardNode) Receive(b *packet.Buf, _ *Link) { b.Release() }
func (d *discardNode) Label() string                  { return d.label }

func newLazyTransit(tb testing.TB) *lazyTransit {
	tb.Helper()
	sim := NewSim(23)
	k := &lazyTransit{sim: sim, a: &discardNode{"a"}}
	for i := range k.links {
		l := newLink(sim, k.a, &discardNode{"b"}, time.Millisecond, 0)
		l.SetBottleneck(k.a, 1_250_000, 0.85, aqm.NewRED(50, sim.RNG()))
		k.links[i] = l
	}
	wire, err := packet.BuildUDP(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, ecn.ECT0, 1, make([]byte, 200))
	if err != nil {
		tb.Fatal(err)
	}
	k.wire = wire
	k.tick = func() { k.sim.After(2*time.Millisecond, k.tick) }
	k.sim.After(0, k.tick)
	k.run(2 * time.Second) // warm the slab, the heap, the lanes and the queues' rings
	return k
}

// run advances the kernel by d of virtual time and returns how many
// phantom boundaries it replayed.
func (k *lazyTransit) run(d time.Duration) uint64 {
	before := k.sim.ReplayedBoundaries()
	for end := k.sim.Now() + d; k.sim.Now() < end; {
		for _, l := range k.links {
			bf := packet.NewBuf()
			bf.Write(k.wire)
			l.Send(k.a, bf)
		}
		k.sim.RunUntil(k.sim.Now() + 10*time.Millisecond)
	}
	return k.sim.ReplayedBoundaries() - before
}

// BenchmarkLazyReplay reports the lazy drive's cost per replayed
// phantom boundary, foreground and timer events included in the
// numerator.
func BenchmarkLazyReplay(b *testing.B) {
	k := newLazyTransit(b)
	b.ReportAllocs()
	b.ResetTimer()
	var boundaries uint64
	for i := 0; i < b.N; i++ {
		boundaries += k.run(100 * time.Millisecond)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(boundaries), "ns/boundary")
}

// TestLazyReplayAllocFree pins the lazy replay at zero allocations once
// warm: boundaries, the discipline's ring, the foreground finish
// events and the deliveries behind them.
func TestLazyReplayAllocFree(t *testing.T) {
	k := newLazyTransit(t)
	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	var boundaries uint64
	allocs := testing.AllocsPerRun(10, func() { boundaries += k.run(100 * time.Millisecond) })
	if boundaries == 0 {
		t.Fatal("the kernel replayed no boundaries")
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per %d replayed boundaries, want 0", allocs, boundaries/11)
	}
}
