package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
)

// referenceRoutes is the per-row BFS the flat route table replaced: one
// []int32 row per source router, each a copy of the BFS's parent-link
// array. ComputeRoutes must produce the same entries.
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
			adj[ra.id] = append(adj[ra.id], edge{rb.id, int32(li) << 1})
			adj[rb.id] = append(adj[rb.id], edge{ra.id, int32(li)<<1 | 1})
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

// routesMismatch compares n's route table with referenceRoutes entry for
// entry, naming the first difference.
func routesMismatch(n *Network) error {
	nr := len(n.routers)
	if len(n.nextHop) != nr*nr {
		return fmt.Errorf("route table holds %d entries, want %d routers² = %d", len(n.nextHop), nr, nr*nr)
	}
	for src, row := range referenceRoutes(n) {
		for dst, want := range row {
			if got := int32(n.nextHop[src*nr+dst]); got != want {
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
	for _, pair := range [][2]int{{0, 4}, {7, 3}, {8, 0}, {2, 8}, {8, 8}} {
		if hop := n.nextHop[pair[0]*len(rs)+pair[1]]; hop != -1 {
			t.Errorf("r%d → r%d across islands: next hop %d, want -1", pair[0], pair[1], hop)
		}
	}
	if l, _ := rs[0].route(rs[5].addr); l != nil {
		t.Errorf("r0 routes toward the other island over %v", l)
	}
}

// TestRoutesLinkLimit: the table's int16 entries hold a link index below
// maxRoutedLinks. The last such index routes in both directions; one
// link more and ComputeRoutes refuses the network.
func TestRoutesLinkLimit(t *testing.T) {
	n := NewNetwork(NewSim(1))
	a := n.AddRouter("a", packet.AddrFrom4(10, 255, 0, 1), 1)
	b := n.AddRouter("b", packet.AddrFrom4(10, 255, 0, 2), 2)
	c := n.AddRouter("c", packet.AddrFrom4(10, 255, 0, 3), 3)
	for len(n.links) < maxRoutedLinks-1 {
		n.Connect(a, c, 0, 0)
	}
	last := n.Connect(b, a, 0, 0) // index maxRoutedLinks-1
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("%d links: %v", len(n.links), err)
	}
	if l, d := a.route(b.addr); l != last || d != 1 {
		t.Errorf("a → b: link %p direction %d, want the last link %p, direction 1", l, d, last)
	}
	if l, d := b.route(a.addr); l != last || d != 0 {
		t.Errorf("b → a: link %p direction %d, want the last link %p, direction 0", l, d, last)
	}
	n.Connect(b, c, 0, 0)
	if err := n.ComputeRoutes(); err == nil {
		t.Fatalf("ComputeRoutes accepted %d links, more than %d", len(n.links), maxRoutedLinks)
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
	frozen := slices.Clone(rt.nextHop)
	chord := n.Connect(rs[0], rs[5], 0, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rt.nextHop, frozen) {
		t.Fatal("recomputing routes wrote the exported table")
	}
	if &n.nextHop[0] == &rt.nextHop[0] {
		t.Fatal("recomputed routes share the exported table's array")
	}
	if l, _ := rs[0].route(rs[5].addr); l != chord {
		t.Errorf("r0 → r5 after the recompute: %v, want the new chord", l)
	}
	if err := routesMismatch(n); err != nil {
		t.Fatal(err)
	}
}
