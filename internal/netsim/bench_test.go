package netsim

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// BenchmarkSimSchedule compares the timing wheel against the heap
// fallback on the mixed near/far timer workload (ScheduleBenchWorkload,
// shared with bench/'s scheduler kernel). Both variants stay at 0
// allocs/op (TestSimScheduleAllocFree).
func BenchmarkSimSchedule(b *testing.B) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		b.Run("sched="+sched.Name(), func(b *testing.B) {
			s := NewSimSched(1, sched)
			ScheduleBenchWorkload(s, 4096) // warm slab, free list, wheel due buffer
			b.ReportAllocs()
			b.ResetTimer()
			ScheduleBenchWorkload(s, b.N)
		})
	}
}

// BenchmarkSimScheduleSparse runs the same comparison on the sparse-
// timeline kernel (ScheduleBenchWorkloadSparse): a near-empty pending
// set with whole windows between instants, the shape real campaigns
// spend most of their virtual time in — and the regime where the wheel
// beats the heap. Also 0 allocs/op (TestSimScheduleAllocFree).
func BenchmarkSimScheduleSparse(b *testing.B) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
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
		for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
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

func BenchmarkEventLoop(b *testing.B) {
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
	k.send(4 * forwardBurst) // warm the buffer pool, the slab and the wheel
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
	k.run(b, 256) // warm the buffer pool, the slab and the wheel
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
