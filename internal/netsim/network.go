package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/packet"
)

// Network is the registry of routers, hosts and links plus the routing
// fabric. The topology package populates it; ComputeRoutes must be called
// after the graph is final and before traffic flows.
type Network struct {
	Sim *Sim

	routers []*Router
	hosts   []*Host
	// links holds nil where ReplaceAttachment took a link out until
	// routes are computed or imported, which close the holes.
	links []*Link
	// base is each host's socket surface as MarkBaseline recorded it,
	// what Reset returns it to; baseUDP holds their UDP bindings.
	base    []hostBaseline
	baseUDP []udpBinding

	// index resolves any address — host or router — to dense indices
	// into routers and hosts (addrindex.go). indexShared marks it as
	// referenced by a RouteTable: mutators copy it first (ownIndex).
	// replay marks a network built to adopt a RouteTable's index
	// (NewReplayNetwork): until ImportRoutes it registers no address,
	// writing into scratch instead.
	index       *addrIndex
	indexShared bool
	replay      bool
	scratch     addrSlot

	// hops is the forwarding table (routes.go), built by ComputeRoutes
	// or shared read-only across Networks via ExportRoutes/ImportRoutes.
	hops   *hopTable
	routed bool
	// routesShared marks hops as shared with a RouteTable (exported
	// or imported): its link indices are the table's, so no link may
	// leave the graph under them.
	routesShared bool
}

// RouteTable is a frozen forwarding table: for every (source router,
// destination router) pair, the egress link's index in the owning
// Network's creation-order link slice and the direction the source
// sends on it (hopTable's encoding), plus the address index
// that maps a destination to its router and host. It is immutable once
// exported and safe to share across concurrently-running Networks whose
// graphs were built by an identical construction sequence.
type RouteTable struct {
	hops    *hopTable
	index   *addrIndex
	routers int
	links   int
}

// NewNetwork creates an empty network on sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{Sim: sim, index: &addrIndex{}}
}

// NewReplayNetwork creates an empty network on sim that is to be built
// by the construction sequence a RouteTable was exported from and then
// adopt that table (ImportRoutes). While it is built it registers no
// address — the table's index already holds them all — so a duplicate
// host address is not refused by AddHost but by ImportRoutes, which
// checks every router's and host's slot.
func NewReplayNetwork(sim *Sim) *Network {
	return &Network{Sim: sim, index: &addrIndex{}, replay: true}
}

// Reserve sizes the network for a graph of the given counts, so that
// building it allocates each registry and the address index once. A
// network grows as needed without it.
func (n *Network) Reserve(routers, hosts, links int) {
	n.routers = slices.Grow(n.routers, routers)
	n.hosts = slices.Grow(n.hosts, hosts)
	n.links = slices.Grow(n.links, links)
	if !n.replay {
		n.ownIndex().grow(2 * (n.index.used + routers + hosts))
	}
}

// ownIndex returns the address index for writing, detaching it first
// from any RouteTable that shares it.
func (n *Network) ownIndex() *addrIndex {
	if n.indexShared {
		n.index = n.index.clone()
		n.indexShared = false
	}
	return n.index
}

// slot returns a's address-index slot for writing; a replay network's
// is a scratch slot it discards.
func (n *Network) slot(a packet.Addr) *addrSlot {
	if n.replay {
		n.scratch = addrSlot{}
		return &n.scratch
	}
	return n.ownIndex().slotFor(a)
}

// AddRouter registers a router with its own address. The third
// parameter, the router's AS number, is unused — AS attribution lives in
// topology's asn.Table — and stays only because bench/kernels.go calls
// AddRouter with three arguments; drop it with the next change to bench/.
func (n *Network) AddRouter(label string, addr packet.Addr, _ uint32) *Router {
	r := &Router{
		net:   n,
		id:    int32(len(n.routers)),
		label: label,
		addr:  addr,
	}
	n.routers = append(n.routers, r)
	if e := n.slot(addr); e.router == 0 && e.host == 0 {
		e.router = r.id + 1
	}
	n.routed = false
	return r
}

// AddHost registers a host. It starts online but unattached; call Attach.
func (n *Network) AddHost(label string, addr packet.Addr) (*Host, error) {
	e := n.slot(addr)
	if e.host != 0 {
		return nil, fmt.Errorf("netsim: duplicate host address %s", addr)
	}
	h := &Host{
		net:    n,
		label:  label,
		addr:   addr,
		online: true,
	}
	n.hosts = append(n.hosts, h)
	e.host, e.router = int32(len(n.hosts)), 0 // router set on Attach
	return h, nil
}

// Connect joins two routers with a link.
func (n *Network) Connect(a, b *Router, delay time.Duration, loss float64) *Link {
	l := newLink(n.Sim, a, b, delay, loss)
	n.links = append(n.links, l)
	n.routed = false
	return l
}

// Attach gives a host its access link to a router and registers the
// host's address for delivery.
func (n *Network) Attach(h *Host, r *Router, delay time.Duration, loss float64) (*Link, error) {
	if h.uplink != nil {
		return nil, fmt.Errorf("netsim: host %s (%s) already attached", h.label, h.addr)
	}
	l := newLink(n.Sim, h, r, delay, loss)
	h.uplink = l
	n.links = append(n.links, l)
	n.slot(h.addr).router = r.id + 1
	return l, nil
}

// ReplaceAttachment moves an already-attached host behind a different
// router (the topology generator uses this to slot a dedicated firewall
// router in front of selected servers). The old access link is removed,
// which shifts every later link's index, so routes must be computed or
// imported again, and that is when the shift happens: until then the
// link leaves a hole, so many rehomings shift the links once. A network
// whose routes a RouteTable shares (exported or imported) refuses.
func (n *Network) ReplaceAttachment(h *Host, to *Router, delay time.Duration) (*Link, error) {
	if h.uplink == nil {
		return nil, fmt.Errorf("netsim: host %s (%s) not attached", h.label, h.addr)
	}
	if n.routesShared {
		return nil, fmt.Errorf("netsim: host %s (%s): ReplaceAttachment on a network sharing its routes", h.label, h.addr)
	}
	if i := slices.Index(n.links, h.uplink); i >= 0 {
		n.links[i] = nil
	}
	h.uplink = nil
	n.routed = false
	return n.Attach(h, to, delay, 0)
}

// MarkBaseline records every host's socket surface — the UDP services
// bound so far, its ICMP handler, taps and port-unreachable switch — as
// the state Reset returns to. Call it once the world is built, before
// traffic flows; whatever a measurement binds, taps or registers later
// is transient.
func (n *Network) MarkBaseline() {
	bindings := 0
	for _, h := range n.hosts {
		bindings += len(h.udp)
	}
	n.baseUDP = make([]udpBinding, 0, bindings)
	n.base = make([]hostBaseline, len(n.hosts))
	for i, h := range n.hosts {
		from := int32(len(n.baseUDP))
		n.baseUDP = append(n.baseUDP, h.udp...)
		n.base[i] = hostBaseline{
			icmp:                   h.icmp,
			udp:                    [2]int32{from, int32(len(n.baseUDP))},
			taps:                   int32(len(h.taps)),
			respondPortUnreachable: h.RespondPortUnreachable,
		}
	}
}

// Reset returns every host, router and link to its post-MarkBaseline
// state: counters, ID and port cursors, loss, transmitter and queue
// state, and each host's socket surface. The graph, routes, delays and
// policy placement are untouched, and nothing is allocated. It is the
// network half of a world reset (Sim.Reset is the scheduler half; call
// that first, so transmitters restart at time zero).
func (n *Network) Reset() {
	for i, h := range n.hosts {
		h.reset(&n.base[i])
	}
	for _, r := range n.routers {
		r.reset()
	}
	for _, l := range n.links {
		l.reset()
	}
}

// Routers returns the registered routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }

// ExportRoutes freezes the computed forwarding tables and the address
// index for reuse. The returned table shares this Network's backing
// arrays; neither side writes them afterwards — routes are only ever
// recomputed wholesale, which allocates a fresh table, and a graph
// mutation copies the index first (ownIndex).
func (n *Network) ExportRoutes() (*RouteTable, error) {
	if !n.routed {
		return nil, fmt.Errorf("netsim: ExportRoutes before ComputeRoutes")
	}
	n.indexShared, n.routesShared = true, true
	return &RouteTable{
		hops:    n.hops,
		index:   n.index,
		routers: len(n.routers),
		links:   len(n.links),
	}, nil
}

// routerEnds returns l's endpoints when both are routers.
func routerEnds(l *Link) (a, b *Router, ok bool) {
	a, aOK := l.a.(*Router)
	b, bOK := l.b.(*Router)
	return a, b, aOK && bOK
}

// ImportRoutes installs a shared forwarding table instead of running
// ComputeRoutes, and the table's address index in place of any this
// Network built while its graph was assembled. The graph must have been
// built by the same construction sequence as the table's origin — same
// routers, hosts and links, in the same creation order. The router and
// link counts are checked, and every router's and host's slot in the
// table's index against what registering it here would have written;
// the topology blueprint guarantees the rest by replaying one recorded
// build.
func (n *Network) ImportRoutes(rt *RouteTable) error {
	if rt == nil {
		return fmt.Errorf("netsim: ImportRoutes with nil table")
	}
	n.links = slices.DeleteFunc(n.links, func(l *Link) bool { return l == nil }) // ReplaceAttachment's holes
	if len(n.routers) != rt.routers || len(n.links) != rt.links {
		return fmt.Errorf("netsim: route table shape mismatch: network has %d routers / %d links, table %d / %d",
			len(n.routers), len(n.links), rt.routers, rt.links)
	}
	if err := n.checkIndex(rt.index); err != nil {
		return err
	}
	n.adoptRoutes(rt.hops)
	n.index, n.indexShared, n.replay, n.scratch = rt.index, true, false, addrSlot{}
	n.routed, n.routesShared = true, true
	return nil
}

// checkIndex reports the first host or router whose slot in ix is not
// the one registering n's graph writes — a host's names it and its
// attachment router; a router's, it, the host shadowing it or the first
// router of its address — or an entry none of them owns.
func (n *Network) checkIndex(ix *addrIndex) error {
	owned := len(n.hosts)
	for i, h := range n.hosts {
		at := int32(0)
		if h.uplink != nil {
			at = h.uplink.b.(*Router).id + 1
		}
		if e := ix.lookup(h.addr); e.host != int32(i)+1 || e.router != at {
			return fmt.Errorf("netsim: route table's index does not match host %s (%s)", h.label, h.addr)
		}
	}
	for i, r := range n.routers {
		switch e := ix.lookup(r.addr); {
		case e.router == int32(i)+1 && e.host == 0:
			owned++
		case e.host == 0 && (e.router == 0 || int(e.router) > i || n.routers[e.router-1].addr != r.addr):
			return fmt.Errorf("netsim: route table's index does not match router %s", r.label)
		}
	}
	if owned != ix.used {
		return fmt.Errorf("netsim: route table's index holds %d addresses, the network %d", ix.used, owned)
	}
	return nil
}

// HostIndex returns the position, in the order AddHost registered them,
// of the host whose address is a.
func (n *Network) HostIndex(a packet.Addr) (int, bool) {
	e := n.index.lookup(a)
	return int(e.host) - 1, e.host != 0
}

// PathRouters traces the routing-table path from a source host to a
// destination address, returning the router sequence a packet would
// traverse. Analysis code uses this as ground truth when validating what
// traceroute inferred.
func (n *Network) PathRouters(from *Host, dst packet.Addr) ([]*Router, error) {
	if !n.routed {
		return nil, fmt.Errorf("netsim: ComputeRoutes not called")
	}
	if from.uplink == nil {
		return nil, fmt.Errorf("netsim: host %s (%s) not attached", from.label, from.addr)
	}
	cur, _ := from.uplink.Peer(from).(*Router)
	var path []*Router
	for hops := 0; cur != nil && hops < 1024; hops++ {
		path = append(path, cur)
		if dst == cur.addr {
			return path, nil
		}
		link, d := cur.route(dst)
		if link == nil {
			return path, fmt.Errorf("netsim: no route from %s to %s", cur.label, dst)
		}
		next, ok := link.peerOf(d).(*Router)
		if !ok {
			return path, nil
		}
		cur = next
	}
	return path, fmt.Errorf("netsim: path from %s (%s) to %s too long", from.label, from.addr, dst)
}
