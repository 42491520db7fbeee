package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// indexOracle is the map-based destination lookup the address index
// replaced (Network.hostAttach, Router.hostLinks and the router scan),
// kept here to check the index against: it is fed the same mutations
// and must give the same answers.
type indexOracle struct {
	hosts    map[packet.Addr]*Host
	attached map[packet.Addr]*Router
	routers  map[packet.Addr]*Router // first registration wins
}

func newIndexOracle() *indexOracle {
	return &indexOracle{
		hosts:    make(map[packet.Addr]*Host),
		attached: make(map[packet.Addr]*Router),
		routers:  make(map[packet.Addr]*Router),
	}
}

// route is the pre-index Router.route/Network.nextHopLink pair.
func (o *indexOracle) route(n *Network, r *Router, dst packet.Addr) *Link {
	hop := func(to *Router) *Link {
		if i := n.nextHop[r.id][to.id]; i >= 0 {
			return n.links[i>>1]
		}
		return nil
	}
	if h, ok := o.hosts[dst]; ok && h.uplink != nil {
		at := o.attached[dst]
		if at == r {
			return h.uplink
		}
		return hop(at)
	}
	if dr, ok := o.routers[dst]; ok && dr != r {
		return hop(dr)
	}
	return nil
}

// egress is r.route's link, after checking the direction route returned
// against the link's own endpoints.
func egress(t *testing.T, r *Router, dst packet.Addr) *Link {
	t.Helper()
	l, d := r.route(dst)
	if l != nil && d != l.dir(r) {
		t.Fatalf("%s.route(%s) sends on direction %d of a link it is end %d of", r.label, dst, d, l.dir(r))
	}
	return l
}

// indexedNet is a Network under test with its oracle and the builders
// that keep the two in step.
type indexedNet struct {
	t      *testing.T
	n      *Network
	o      *indexOracle
	nextIP int
}

func (x *indexedNet) addRouter() *Router {
	addr := packet.AddrFrom4(10, 255, byte(len(x.n.routers)>>8), byte(len(x.n.routers)))
	r := x.n.AddRouter(fmt.Sprintf("r%d", len(x.n.routers)), addr, uint32(len(x.n.routers)))
	if _, dup := x.o.routers[addr]; !dup {
		x.o.routers[addr] = r
	}
	return r
}

func (x *indexedNet) addHost() *Host {
	x.nextIP++
	addr := packet.AddrFrom4(10, byte(x.nextIP>>16), byte(x.nextIP>>8), byte(x.nextIP))
	h, err := x.n.AddHost(fmt.Sprintf("h%d", x.nextIP), addr)
	if err != nil {
		x.t.Fatal(err)
	}
	x.o.hosts[addr] = h
	if _, err := x.n.AddHost("dup", addr); err == nil {
		x.t.Fatalf("duplicate host address %s accepted", addr)
	}
	return h
}

func (x *indexedNet) attach(h *Host, r *Router) {
	if _, err := x.n.Attach(h, r, 0, 0); err != nil {
		x.t.Fatal(err)
	}
	x.o.attached[h.addr] = r
}

// rehome moves h behind r and computes the routes again, which the
// removed access link's index shift requires; a network sharing its
// routes with a RouteTable must refuse instead, leaving h where it was.
func (x *indexedNet) rehome(h *Host, r *Router) {
	routed := x.n.routed
	_, err := x.n.ReplaceAttachment(h, r, 0)
	if x.n.routesShared {
		if err == nil {
			x.t.Fatal("a network sharing its routes rehomed a host")
		}
		return
	}
	if err != nil {
		x.t.Fatal(err)
	}
	x.o.attached[h.addr] = r
	if routed {
		if x.n.routed {
			x.t.Fatal("routes survived a rehoming")
		}
		if err := x.n.ComputeRoutes(); err != nil {
			x.t.Fatal(err)
		}
	}
}

// build assembles the same graph on every call: a ring of routers with
// chords, hosts spread across it, one host left unattached.
func buildIndexedNet(t *testing.T, routers, hosts int) *indexedNet {
	x := &indexedNet{t: t, n: NewNetwork(NewSim(1)), o: newIndexOracle()}
	for i := 0; i < routers; i++ {
		x.addRouter()
	}
	rs := x.n.routers
	for i := range rs {
		x.n.Connect(rs[i], rs[(i+1)%routers], 0, 0)
		if i%5 == 0 {
			x.n.Connect(rs[i], rs[(i*7+3)%routers], 0, 0)
		}
	}
	for i := 0; i < hosts; i++ {
		x.attach(x.addHost(), rs[(i*13)%routers])
	}
	x.addHost() // registered, never attached
	return x
}

// hostAt is the host the index files under a, or nil.
func hostAt(n *Network, a packet.Addr) *Host {
	if e := n.index.lookup(a); e.host != 0 {
		return n.hosts[e.host-1]
	}
	return nil
}

// attachedAt is the router the host the index files under a hangs off,
// or nil when a names no host or an unattached one.
func attachedAt(n *Network, a packet.Addr) *Router {
	if e := n.index.lookup(a); e.host != 0 && e.router != 0 {
		return n.routers[e.router-1]
	}
	return nil
}

// check compares every lookup the index serves against the oracle, over
// every known address plus a few unknown ones, from every router.
func (x *indexedNet) check(when string) {
	x.t.Helper()
	n, o := x.n, x.o
	addrs := []packet.Addr{{}, {10, 254, 0, 1}, {192, 0, 2, 1}, {255, 255, 255, 255}}
	for a := range o.hosts {
		addrs = append(addrs, a)
	}
	for a := range o.routers {
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		wantHost := o.hosts[a]
		if got := hostAt(n, a); got != wantHost {
			x.t.Fatalf("%s: host at %s = %v; oracle %v", when, a, got, wantHost)
		}
		if got, want := attachedAt(n, a), o.attached[a]; got != want {
			x.t.Fatalf("%s: attachment router of %s = %v; oracle %v", when, a, got, want)
		}
		if !n.routed {
			continue // forwarding needs routes; the address lookups above do not
		}
		for _, r := range n.routers {
			if got, want := egress(x.t, r, a), o.route(n, r, a); got != want {
				x.t.Fatalf("%s: %s.route(%s) = %p, oracle %p", when, r.label, a, got, want)
			}
		}
	}
}

// mutate issues the post-freeze graph changes the issue names: new
// hosts attached to existing routers, hosts moved between routers.
func (x *indexedNet) mutate(rng *rand.Rand, rounds int) {
	rs := x.n.routers
	for i := 0; i < rounds; i++ {
		h := x.addHost()
		x.check("after AddHost")
		x.attach(h, rs[rng.Intn(len(rs))])
		x.check("after Attach")
		victim := x.n.hosts[rng.Intn(len(x.n.hosts))]
		if victim.uplink != nil {
			x.rehome(victim, rs[rng.Intn(len(rs))])
			x.check("after ReplaceAttachment")
		}
	}
}

// TestAddrIndexMatchesMapOracle drives the dense address index and the
// map oracle through construction (past several table growths), then
// through AddHost/Attach/ReplaceAttachment issued after ComputeRoutes
// and after ImportRoutes (where ReplaceAttachment must refuse), checking
// after every step; and it checks that
// a Network mutating a shared index writes a private copy — the table's
// origin, and a third Network importing it later, see the frozen state.
func TestAddrIndexMatchesMapOracle(t *testing.T) {
	const routers, hosts = 40, 300
	rng := rand.New(rand.NewSource(12))

	origin := buildIndexedNet(t, routers, hosts)
	origin.check("before ComputeRoutes")
	if err := origin.n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	origin.check("after ComputeRoutes")
	rt, err := origin.n.ExportRoutes()
	if err != nil {
		t.Fatal(err)
	}

	replica := buildIndexedNet(t, routers, hosts)
	if err := replica.n.ImportRoutes(rt); err != nil {
		t.Fatal(err)
	}
	if replica.n.index != rt.index {
		t.Fatal("ImportRoutes kept a private index instead of the table's")
	}
	replica.check("after ImportRoutes")

	replica.mutate(rng, 25)
	if replica.n.index == rt.index {
		t.Fatal("mutating an importing network wrote the shared index")
	}
	origin.check("origin, after the replica mutated")

	origin.mutate(rng, 25)
	if origin.n.index == rt.index {
		t.Fatal("mutating the exporting network wrote the shared index")
	}
	replica.check("replica, after the origin mutated")

	// A network that keeps its routes to itself rehomes, and routes
	// again.
	private := buildIndexedNet(t, routers, hosts)
	if err := private.n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	private.mutate(rng, 25)

	// The table still describes the frozen graph.
	late := buildIndexedNet(t, routers, hosts)
	if err := late.n.ImportRoutes(rt); err != nil {
		t.Fatal(err)
	}
	late.check("late import")

	// A graph with a different host count is refused.
	short := buildIndexedNet(t, routers, hosts-1)
	if err := short.n.ImportRoutes(rt); err == nil {
		t.Error("ImportRoutes accepted a network with a different host count")
	}
}

// TestAddrIndexShadowing pins the index's two tie-breaks: a host address
// shadows an equal router address, and of two routers sharing an
// address the first registered is the one traffic routes toward.
func TestAddrIndexShadowing(t *testing.T) {
	n := NewNetwork(NewSim(1))
	shared := packet.AddrFrom4(10, 255, 0, 1)
	r0 := n.AddRouter("r0", shared, 1)
	r1 := n.AddRouter("r1", shared, 2)
	r2 := n.AddRouter("r2", packet.AddrFrom4(10, 255, 0, 3), 3)
	l01 := n.Connect(r0, r1, 0, 0)
	l12 := n.Connect(r1, r2, 0, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if got := egress(t, r2, shared); got != l12 {
		t.Errorf("r2 routes the shared router address over %p, want the link toward r1/r0 %p", got, l12)
	}
	if got := egress(t, r1, shared); got != l01 {
		t.Errorf("r1 routes the shared address over %p, want the link to the first-registered router %p", got, l01)
	}
	if got := egress(t, r0, shared); got != nil {
		t.Errorf("r0 routes its own address over %p, want nil", got)
	}

	h, err := n.AddHost("h", shared)
	if err != nil {
		t.Fatal(err)
	}
	access, err := n.Attach(h, r2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := egress(t, r2, shared); got != access {
		t.Errorf("attached host does not shadow the router address: r2 routes over %p, want access link %p", got, access)
	}
	if got := hostAt(n, shared); got != h {
		t.Errorf("host at the shared address = %v", got)
	}
}
