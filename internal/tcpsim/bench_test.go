package tcpsim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// exchangeLoop is a reusable connect → request → response → close cycle
// with ECN negotiation, the unit of the paper's TCP measurement. All of
// its callbacks and buffers are built once, so running it costs only
// what the stack itself costs.
type exchangeLoop struct {
	sim       *netsim.Sim
	cs        *Stack
	server    packet.Addr
	request   []byte
	conn      *Conn
	completed bool
	dialed    func(*Conn, error)
	onData    func([]byte)
	onClose   func(error)
}

func newExchangeLoop(tb testing.TB) *exchangeLoop {
	sim := netsim.NewSim(1)
	n := netsim.NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 64500)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r, time.Microsecond, 0)
	n.Attach(server, r, time.Microsecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		tb.Fatal(err)
	}
	ss := NewStack(server)
	// One connection at a time, so the echo server's callback can be
	// built once too.
	var accepted *Conn
	echo := func(data []byte) { accepted.Write(data) }
	ss.Listen(80, true, func(c *Conn) {
		accepted = c
		c.OnData(echo)
	})

	x := &exchangeLoop{sim: sim, cs: NewStack(client), server: server.Addr(),
		request: []byte("GET / HTTP/1.1\r\n\r\n")}
	x.onData = func([]byte) { x.conn.Close() }
	x.onClose = func(error) { x.completed = true }
	x.dialed = func(c *Conn, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		x.conn = c
		c.OnData(x.onData)
		c.OnClose(x.onClose)
		c.Write(x.request)
	}
	return x
}

func (x *exchangeLoop) run(tb testing.TB) {
	x.completed = false
	x.cs.Dial(x.server, 80, true, x.dialed)
	x.sim.Run()
	if !x.completed {
		tb.Fatal("exchange did not complete")
	}
}

// BenchmarkHandshakeAndExchange measures the complete cycle; steady
// state is 0 allocs/op (TestExchangeAllocFree holds that line).
func BenchmarkHandshakeAndExchange(b *testing.B) {
	x := newExchangeLoop(b)
	x.run(b) // fill the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.run(b)
	}
}

func TestExchangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	x := newExchangeLoop(t)
	x.run(t)
	if allocs := testing.AllocsPerRun(100, func() { x.run(t) }); allocs != 0 {
		t.Errorf("handshake + exchange + close allocates %.1f times per run, want 0", allocs)
	}
}
