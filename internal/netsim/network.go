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
	links   []*Link

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

	// nextHop[src*len(routers)+dst] is the hop router #src takes
	// toward router #dst: the egress link's index into links, shifted
	// left once, with the direction src sends on it in the low bit; -1
	// means unreachable. One flat table, so a link index must fit in 15
	// bits (maxRoutedLinks). Built by ComputeRoutes or shared read-only
	// across Networks via ExportRoutes/ImportRoutes — indices, not
	// pointers, so networks instantiated from one frozen topology can
	// share a single table.
	nextHop []int16
	routed  bool
	// routesShared marks nextHop as shared with a RouteTable (exported
	// or imported): its link indices are the table's, so no link may
	// leave the graph under them.
	routesShared bool
}

// RouteTable is a frozen forwarding table: for every (source router,
// destination router) pair, the egress link's index in the owning
// Network's creation-order link slice and the direction the source
// sends on it (Network.nextHop's encoding), plus the address index
// that maps a destination to its router and host. It is immutable once
// exported and safe to share across concurrently-running Networks whose
// graphs were built by an identical construction sequence.
type RouteTable struct {
	nextHop []int16
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
		id:    len(n.routers),
		label: label,
		addr:  addr,
	}
	n.routers = append(n.routers, r)
	if e := n.slot(addr); e.router == 0 && e.host == 0 {
		e.router = int32(r.id) + 1
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
		sim:    n.Sim,
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
	n.slot(h.addr).router = int32(r.id) + 1
	return l, nil
}

// ReplaceAttachment moves an already-attached host behind a different
// router (the topology generator uses this to slot a dedicated firewall
// router in front of selected servers). The old access link is removed,
// which shifts every later link's index, so routes must be computed
// again; a network whose routes a RouteTable shares (exported or
// imported) refuses.
func (n *Network) ReplaceAttachment(h *Host, to *Router, delay time.Duration) (*Link, error) {
	if h.uplink == nil {
		return nil, fmt.Errorf("netsim: host %s (%s) not attached", h.label, h.addr)
	}
	if n.routesShared {
		return nil, fmt.Errorf("netsim: host %s (%s): ReplaceAttachment on a network sharing its routes", h.label, h.addr)
	}
	for i, l := range n.links {
		if l == h.uplink {
			n.links = append(n.links[:i], n.links[i+1:]...)
			break
		}
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
	slab := make([]udpBinding, bindings)
	for _, h := range n.hosts {
		slab = h.markBaseline(slab)
	}
}

// Reset returns every host, router and link to its post-MarkBaseline
// state: counters, ID and port cursors, loss, transmitter and queue
// state, and each host's socket surface. The graph, routes, delays and
// policy placement are untouched, and nothing is allocated. It is the
// network half of a world reset (Sim.Reset is the scheduler half; call
// that first, so transmitters restart at time zero).
func (n *Network) Reset() {
	for _, h := range n.hosts {
		h.reset()
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

// maxRoutedLinks is the most links ComputeRoutes routes over: a
// nextHop entry holds a link index and a direction bit in an int16.
const maxRoutedLinks = 1 << 14

// ComputeRoutes builds shortest-path next-hop tables with one BFS per
// router. Ties break toward the earliest-created neighbour link, which is
// deterministic and stable — paths do not flap between runs, matching the
// study's observation that the same servers fail from every vantage point.
// A network of more than maxRoutedLinks links is refused. The table is
// always fresh: one a RouteTable shares is never written.
func (n *Network) ComputeRoutes() error {
	if len(n.links) > maxRoutedLinks {
		return fmt.Errorf("netsim: %d links, more than the %d a route table encodes", len(n.links), maxRoutedLinks)
	}
	nr := len(n.routers)
	// Router #r's neighbours, in link order, are to[first[r]:first[r+1]],
	// reached over hop[first[r]:first[r+1]] (link index<<1 | direction).
	first := make([]int32, nr+1)
	for _, l := range n.links {
		if ra, rb, ok := routerEnds(l); ok {
			first[ra.id+1]++
			first[rb.id+1]++
		}
	}
	for r := range nr {
		first[r+1] += first[r]
	}
	to, hop := make([]int32, first[nr]), make([]int16, first[nr])
	fill := slices.Clone(first[:nr])
	for li, l := range n.links {
		if ra, rb, ok := routerEnds(l); ok {
			to[fill[ra.id]], hop[fill[ra.id]] = int32(rb.id), int16(li)<<1
			fill[ra.id]++
			to[fill[rb.id]], hop[fill[rb.id]] = int32(ra.id), int16(li)<<1|1
			fill[rb.id]++
		}
	}

	n.nextHop = make([]int16, nr*nr)
	queue := fill[:0] // fill is spent: the BFS queue reuses it
	for src := 0; src < nr; src++ {
		// The row is the BFS's parent-link array: each router reached
		// inherits the first hop out of src on its path, so a router
		// other than src is visited once its entry is set.
		row := n.nextHop[src*nr : (src+1)*nr]
		for i := range row {
			row[i] = -1
		}
		queue = append(queue[:0], int32(src))
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for e := first[cur]; e < first[cur+1]; e++ {
				next := to[e]
				if int(next) == src || row[next] >= 0 {
					continue
				}
				if int(cur) == src {
					row[next] = hop[e] // first hop out of src
				} else {
					row[next] = row[cur]
				}
				queue = append(queue, next)
			}
		}
	}
	n.routed = true
	return nil
}

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
		nextHop: n.nextHop,
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
	if len(n.routers) != rt.routers || len(n.links) != rt.links {
		return fmt.Errorf("netsim: route table shape mismatch: network has %d routers / %d links, table %d / %d",
			len(n.routers), len(n.links), rt.routers, rt.links)
	}
	if err := n.checkIndex(rt.index); err != nil {
		return err
	}
	n.nextHop = rt.nextHop
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
			at = int32(h.uplink.b.(*Router).id) + 1
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
