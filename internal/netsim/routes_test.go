package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
)

// referenceRoutes is the dense per-row BFS the packed route table
// replaced: one []int32 row per source router, each a copy of the BFS's
// parent-link array. ComputeRoutes' table must answer every (source,
// destination) pair alike.
func referenceRoutes(n *Network) [][]int32 {
	nr := len(n.routers)
	type edge struct {
		to  int
		hop int32
	}
	adj := make([][]edge, nr)
	for li, l := range n.links {
		ra, aOK := l.a.(*Router)
		rb, bOK := l.b.(*Router)
		if aOK && bOK {
			adj[ra.id] = append(adj[ra.id], edge{rb.ID(), int32(li) << 1})
			adj[rb.id] = append(adj[rb.id], edge{ra.ID(), int32(li)<<1 | 1})
		}
	}
	rows := make([][]int32, nr)
	queue := make([]int, 0, nr)
	parentLink := make([]int32, nr)
	visited := make([]bool, nr)
	for src := 0; src < nr; src++ {
		for i := range visited {
			visited[i] = false
			parentLink[i] = -1
		}
		queue = append(queue[:0], src)
		visited[src] = true
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, e := range adj[cur] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				if cur == src {
					parentLink[e.to] = e.hop
				} else {
					parentLink[e.to] = parentLink[cur]
				}
				queue = append(queue, e.to)
			}
		}
		rows[src] = slices.Clone(parentLink)
	}
	return rows
}

// nextHop is n's table's hop from router #src toward router #dst, read
// through the row src holds, as Router.route reads it.
func nextHop(n *Network, src, dst int) int32 {
	r := n.routers[src]
	return n.hops.at(r.hopWord, r.hopBase, r.hopWidth, dst)
}

// routesMismatch compares n's route table with referenceRoutes for every
// pair of distinct routers, naming the first difference.
func routesMismatch(n *Network) error {
	if len(n.hops.rows) != len(n.routers) {
		return fmt.Errorf("route table holds %d rows, want one per router, %d", len(n.hops.rows), len(n.routers))
	}
	for src, row := range referenceRoutes(n) {
		for dst, want := range row {
			if dst == src {
				continue // Router.route answers a router's own address
			}
			if got := nextHop(n, src, dst); got != want {
				return fmt.Errorf("next hop %d → %d = %d, reference BFS %d", src, dst, got, want)
			}
		}
	}
	return nil
}

// TestRoutesMatchReferenceDisconnected: a graph of two islands and an
// isolated router routes within each island and marks every pair across
// them unreachable, as the per-row BFS did.
func TestRoutesMatchReferenceDisconnected(t *testing.T) {
	n := NewNetwork(NewSim(1))
	var rs []*Router
	for i := 0; i < 9; i++ {
		rs = append(rs, n.AddRouter(fmt.Sprintf("r%d", i), packet.AddrFrom4(10, 255, 0, byte(i)), uint32(i)))
	}
	// Island one: a ring of four with a chord; island two: a chain of
	// three plus a parallel link; r8 alone.
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 5}, {5, 6}, {5, 6}, {6, 7}} {
		n.Connect(rs[p[0]], rs[p[1]], 0, 0)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if err := routesMismatch(n); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 4}, {7, 3}, {8, 0}, {2, 8}} {
		if hop := nextHop(n, pair[0], pair[1]); hop != -1 {
			t.Errorf("r%d → r%d across islands: next hop %d, want -1", pair[0], pair[1], hop)
		}
	}
	if l, _ := rs[0].route(rs[5].addr); l != nil {
		t.Errorf("r0 routes toward the other island over %v", l)
	}
}

// TestRoutesLinkLimit: the table holds link indices past the 16 384 a
// dense int16 table could encode, and codes as wide as a router's
// links need. A hub of 300 router links and a pair of routers joined
// by 16 200 parallel links (9 and 14 bits, each held in 16) route
// every pair as the reference BFS does, and the last link routes in
// both directions.
func TestRoutesLinkLimit(t *testing.T) {
	n := NewNetwork(NewSim(1))
	addr := func(i int) packet.Addr { return packet.AddrFrom4(10, 254, byte(i>>8), byte(i)) }
	hub := n.AddRouter("hub", addr(0), 0)
	var leaves []*Router
	for i := 1; i <= 300; i++ {
		leaves = append(leaves, n.AddRouter(fmt.Sprintf("leaf%d", i), addr(i), 0))
		n.Connect(hub, leaves[i-1], 0, 0)
	}
	a := n.AddRouter("a", addr(301), 0)
	b := n.AddRouter("b", addr(302), 0)
	n.Connect(leaves[0], a, 0, 0)
	for len(n.links) < 1<<14+200 {
		n.Connect(a, b, 0, 0)
	}
	c := n.AddRouter("c", addr(303), 0)
	last := n.Connect(b, c, 0, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("%d links: %v", len(n.links), err)
	}
	if w := hub.hopWidth; w != 16 {
		t.Errorf("the hub's codes are %d bits wide, want 16", w)
	}
	if err := routesMismatch(n); err != nil {
		t.Fatal(err)
	}
	if l, d := b.route(c.addr); l != last || d != 0 {
		t.Errorf("b → c: link %p direction %d, want the last link %p, direction 0", l, d, last)
	}
	if l, d := c.route(hub.addr); l != last || d != 1 {
		t.Errorf("c → hub: link %p direction %d, want the last link %p, direction 1", l, d, last)
	}
}

// TestRecomputeLeavesExportedRoutes: routes computed again after
// ExportRoutes — here because a new chord shortens a path — land in a
// fresh table; the exported one, which other networks forward by, keeps
// every entry.
func TestRecomputeLeavesExportedRoutes(t *testing.T) {
	n := NewNetwork(NewSim(1))
	var rs []*Router
	for i := 0; i < 6; i++ {
		rs = append(rs, n.AddRouter(fmt.Sprintf("r%d", i), packet.AddrFrom4(10, 255, 0, byte(i)), uint32(i)))
		if i > 0 {
			n.Connect(rs[i-1], rs[i], 0, 0)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rt, err := n.ExportRoutes()
	if err != nil {
		t.Fatal(err)
	}
	frozen := *rt.hops
	frozen.codes, frozen.rows, frozen.hops = slices.Clone(frozen.codes), slices.Clone(frozen.rows), slices.Clone(frozen.hops)
	chord := n.Connect(rs[0], rs[5], 0, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rt.hops.codes, frozen.codes) || !slices.Equal(rt.hops.rows, frozen.rows) || !slices.Equal(rt.hops.hops, frozen.hops) {
		t.Fatal("recomputing routes wrote the exported table")
	}
	if n.hops == rt.hops || &n.hops.codes[0] == &rt.hops.codes[0] {
		t.Fatal("recomputed routes share the exported table")
	}
	if l, _ := rs[0].route(rs[5].addr); l != chord {
		t.Errorf("r0 → r5 after the recompute: %v, want the new chord", l)
	}
	if err := routesMismatch(n); err != nil {
		t.Fatal(err)
	}
}
