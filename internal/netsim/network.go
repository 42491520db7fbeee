package netsim

import (
	"fmt"
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
	index       *addrIndex
	indexShared bool

	// nextHop[src][dst] is the hop router #src takes toward router
	// #dst: the egress link's index into links, shifted left once, with
	// the direction src sends on it in the low bit; -1 means
	// unreachable. Built by ComputeRoutes or shared read-only across
	// Networks via ExportRoutes/ImportRoutes — indices, not pointers, so
	// networks instantiated from one frozen topology can share a single
	// table.
	nextHop [][]int32
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
	nextHop [][]int32
	index   *addrIndex
	routers int
	hosts   int
	links   int
}

// NewNetwork creates an empty network on sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{Sim: sim, index: &addrIndex{}}
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

// AddRouter registers a router with its own address and AS number.
func (n *Network) AddRouter(label string, addr packet.Addr, asn uint32) *Router {
	r := &Router{
		net:   n,
		id:    len(n.routers),
		label: label,
		addr:  addr,
		asn:   asn,
	}
	n.routers = append(n.routers, r)
	if e := n.ownIndex().slotFor(addr); e.router == 0 && e.host == 0 {
		e.router = int32(r.id) + 1
	}
	n.routed = false
	return r
}

// AddHost registers a host. It starts online but unattached; call Attach.
func (n *Network) AddHost(label string, addr packet.Addr) (*Host, error) {
	e := n.ownIndex().slotFor(addr)
	if e.host != 0 {
		return nil, fmt.Errorf("netsim: duplicate host address %s", addr)
	}
	h := &Host{
		sim:      n.Sim,
		net:      n,
		label:    label,
		addr:     addr,
		online:   true,
		udpPorts: make(map[uint16]UDPHandler),
		protos:   make(map[packet.Protocol]ProtoHandler),
	}
	n.hosts = append(n.hosts, h)
	e.host, e.router = int32(len(n.hosts)), 0 // router set on Attach
	return h, nil
}

// Connect joins two routers with a link.
func (n *Network) Connect(a, b *Router, delay time.Duration, loss float64) *Link {
	l := newLink(n.Sim, a, b, delay, loss)
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	n.links = append(n.links, l)
	n.routed = false
	return l
}

// Attach gives a host its access link to a router and registers the
// host's address for delivery.
func (n *Network) Attach(h *Host, r *Router, delay time.Duration, loss float64) (*Link, error) {
	if h.uplink != nil {
		return nil, fmt.Errorf("netsim: host %s already attached", h.label)
	}
	l := newLink(n.Sim, h, r, delay, loss)
	h.uplink = l
	n.links = append(n.links, l)
	n.ownIndex().slotFor(h.addr).router = int32(r.id) + 1
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
		return nil, fmt.Errorf("netsim: host %s not attached", h.label)
	}
	if n.routesShared {
		return nil, fmt.Errorf("netsim: host %s: ReplaceAttachment on a network sharing its routes", h.label)
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
		bindings += len(h.udpPorts)
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

// ComputeRoutes builds shortest-path next-hop tables with one BFS per
// router. Ties break toward the earliest-created neighbour link, which is
// deterministic and stable — paths do not flap between runs, matching the
// study's observation that the same servers fail from every vantage point.
func (n *Network) ComputeRoutes() error {
	nr := len(n.routers)
	// adjacency: router id -> (neighbor id, hop: link index<<1 | direction)
	type edge struct {
		to  int
		hop int32
	}
	adj := make([][]edge, nr)
	for li, l := range n.links {
		ra, aOK := l.a.(*Router)
		rb, bOK := l.b.(*Router)
		if aOK && bOK {
			adj[ra.id] = append(adj[ra.id], edge{rb.id, int32(li) << 1})
			adj[rb.id] = append(adj[rb.id], edge{ra.id, int32(li)<<1 | 1})
		}
	}

	n.nextHop = make([][]int32, nr)
	queue := make([]int, 0, nr)
	parentLink := make([]int32, nr)
	visited := make([]bool, nr)

	for src := 0; src < nr; src++ {
		for i := range visited {
			visited[i] = false
			parentLink[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, src)
		visited[src] = true
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, e := range adj[cur] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				if cur == src {
					parentLink[e.to] = e.hop // first hop out of src
				} else {
					parentLink[e.to] = parentLink[cur]
				}
				queue = append(queue, e.to)
			}
		}
		row := make([]int32, nr)
		copy(row, parentLink)
		n.nextHop[src] = row
	}
	n.routed = true
	return nil
}

// ExportRoutes freezes the computed forwarding tables and the address
// index for reuse. The returned table shares this Network's backing
// arrays; neither side writes them afterwards — routes are only ever
// recomputed wholesale, which allocates fresh rows, and a graph
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
		hosts:   len(n.hosts),
		links:   len(n.links),
	}, nil
}

// ImportRoutes installs a shared forwarding table instead of running
// ComputeRoutes, and the table's address index in place of the one this
// Network built while its graph was assembled. The Network's graph must
// have been built by the same construction sequence as the table's
// origin — same routers, hosts and links, in the same creation order —
// which the counts check cheaply; the topology blueprint guarantees the
// rest by replaying one recorded build.
func (n *Network) ImportRoutes(rt *RouteTable) error {
	if rt == nil {
		return fmt.Errorf("netsim: ImportRoutes with nil table")
	}
	if len(n.routers) != rt.routers || len(n.hosts) != rt.hosts || len(n.links) != rt.links {
		return fmt.Errorf("netsim: route table shape mismatch: network has %d routers / %d hosts / %d links, table %d / %d / %d",
			len(n.routers), len(n.hosts), len(n.links), rt.routers, rt.hosts, rt.links)
	}
	n.nextHop = rt.nextHop
	n.index, n.indexShared = rt.index, true
	n.routed, n.routesShared = true, true
	return nil
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
		return nil, fmt.Errorf("netsim: host %s not attached", from.label)
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
	return path, fmt.Errorf("netsim: path from %s to %s too long", from.label, dst)
}
