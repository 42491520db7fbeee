package ntp

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func BenchmarkPacketMarshal(b *testing.B) {
	p := NewRequest(0x1234567890)
	buf := make([]byte, 0, PacketLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.Marshal(buf[:0])
	}
}

func BenchmarkPacketParse(b *testing.B) {
	p := NewRequest(42)
	wire := p.Marshal(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// probeLoop runs complete reachability probes across a two-router path
// with its callback built once, so a run costs only what the probe and
// the simulator cost.
type probeLoop struct {
	sim     *netsim.Sim
	client  *netsim.Host
	server  packet.Addr
	reached bool
	done    func(ProbeResult)
}

func newProbeLoop(tb testing.TB) *probeLoop {
	sim := netsim.NewSim(1)
	n := netsim.NewNetwork(sim)
	r1 := n.AddRouter("r1", packet.AddrFrom4(10, 255, 0, 1), 64500)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 1, 1), 64501)
	n.Connect(r1, r2, time.Microsecond, 0)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r1, time.Microsecond, 0)
	n.Attach(server, r2, time.Microsecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		tb.Fatal(err)
	}
	if err := NewServer(1).AttachSim(server); err != nil {
		tb.Fatal(err)
	}
	l := &probeLoop{sim: sim, client: client, server: server.Addr()}
	l.done = func(r ProbeResult) { l.reached = r.Reachable }
	return l
}

func (l *probeLoop) run(tb testing.TB) {
	l.reached = false
	Probe(l.client, l.server, ProbeConfig{ECN: ecn.ECT0}, l.done)
	l.sim.Run()
	if !l.reached {
		tb.Fatal("probe failed")
	}
}

// BenchmarkProbeRoundTrip measures the paper's UDP measurement unit: one
// NTP reachability probe across a two-router path. Steady state is
// 0 allocs/op (TestProbeAllocFree in tier-1).
func BenchmarkProbeRoundTrip(b *testing.B) {
	l := newProbeLoop(b)
	l.run(b) // fill the host's free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.run(b)
	}
}

// TestProbeAllocFree: a probe's state is one shell on the probing
// host's free list, taken and returned by every probe — so the list
// never grows past the probes in flight, under the race detector too —
// and a whole round trip allocates nothing once that shell exists.
func TestProbeAllocFree(t *testing.T) {
	l := newProbeLoop(t)
	l.run(t)
	shell, _ := l.client.UserData.(*probeRun)
	if shell == nil || shell.next != nil {
		t.Fatalf("after one probe the host's free list is %+v, want exactly one shell", shell)
	}
	l.run(t)
	if again, _ := l.client.UserData.(*probeRun); again != shell || again.next != nil {
		t.Fatal("the second probe did not take and return the first probe's shell")
	}
	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(100, func() { l.run(t) }); allocs != 0 {
		t.Errorf("probe round trip allocates %.1f times per run, want 0", allocs)
	}
}
