package netsim

import (
	"fmt"
	"math/bits"
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

// bfsRoutes is the table ComputeRoutes built before it peeled the
// graph's trees: one BFS over the whole graph from every router, in
// link order. The peeled build must equal it byte for byte.
func bfsRoutes(n *Network) *hopTable {
	nr := len(n.routers)
	first := make([]int32, nr+1)
	for _, l := range n.links {
		if ra, rb, ok := routerEnds(l); ok {
			first[ra.id+1]++
			first[rb.id+1]++
		}
	}
	for r := range nr {
		first[r+1] += first[r] + 1
	}
	to, hops := make([]int32, first[nr]), make([]int32, first[nr])
	fill := slices.Clone(first[:nr])
	for li, l := range n.links {
		if ra, rb, ok := routerEnds(l); ok {
			to[fill[ra.id]], hops[fill[ra.id]] = int32(rb.id), int32(li)<<1
			fill[ra.id]++
			to[fill[rb.id]], hops[fill[rb.id]] = int32(ra.id), int32(li)<<1|1
			fill[rb.id]++
		}
	}
	for _, end := range first[1:] {
		hops[end-1] = -1
	}
	queue, code := fill[:0], make([]int32, nr)
	bfs := func(src int) int {
		for i := range code {
			code[i] = -1
		}
		code[src] = 0
		queue = append(queue[:0], int32(src))
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for e := first[cur]; e < first[cur+1]-1; e++ {
				if next := to[e]; code[next] < 0 {
					code[next] = code[cur]
					if int(cur) == src {
						code[next] = e - first[src]
					}
					queue = append(queue, next)
				}
			}
		}
		return len(queue)
	}
	unreachable := int32(1)
	if nr > 0 && bfs(0) == nr {
		unreachable = 0
	}
	t := &hopTable{rows: make([]hopRow, nr), hops: hops}
	words := 0
	for r := range t.rows {
		codes := first[r+1] - first[r] - 1 + unreachable
		w := bits.Len32(uint32(max(codes-1, 0)))
		if w > 0 {
			w = 1 << bits.Len(uint(w-1))
		}
		t.rows[r] = hopRow{word: uint32(words), base: uint32(first[r]), width: uint8(w)}
		words += (nr*w + 63) / 64
	}
	t.codes = make([]uint64, words+1)
	for src, r := range t.rows {
		bfs(src)
		w := uint(r.width)
		for dst, c := range code {
			if c < 0 {
				c = first[src+1] - 1 - first[src]
			}
			bit := uint(dst) * w
			t.codes[uint(r.word)+bit/64] |= uint64(c) << (bit % 64)
		}
	}
	return t
}

// nextHop is n's table's hop from router #src toward router #dst, read
// through the row src holds, as Router.route reads it.
func nextHop(n *Network, src, dst int) int32 {
	r := n.routers[src]
	return n.hops.at(r.hopWord, r.hopBase, r.hopWidth, dst)
}

// routesMismatch compares n's route table with referenceRoutes for every
// pair of distinct routers, naming the first difference, and with
// bfsRoutes' table byte for byte — codes, rows and hops.
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
	want := bfsRoutes(n)
	for _, c := range []struct {
		part string
		same bool
	}{
		{"codes", slices.Equal(n.hops.codes, want.codes)},
		{"rows", slices.Equal(n.hops.rows, want.rows)},
		{"hops", slices.Equal(n.hops.hops, want.hops)},
	} {
		if !c.same {
			return fmt.Errorf("route table %s differ from the whole-graph BFS's", c.part)
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

// graphFrom builds a network of routers only from data, whose first
// byte sets the router count (1 to 32) and each later pair of bytes
// links two of them, in order: a router paired with itself gets a
// self-loop, a pair repeated a parallel link.
func graphFrom(data []byte) *Network {
	n := NewNetwork(NewSim(1))
	if len(data) == 0 {
		return n
	}
	var rs []*Router
	for i := range int(data[0])%32 + 1 {
		rs = append(rs, n.AddRouter(fmt.Sprintf("r%d", i), packet.AddrFrom4(10, 253, 0, byte(i)), 0))
	}
	for i := 1; i+1 < len(data); i += 2 {
		n.Connect(rs[int(data[i])%len(rs)], rs[int(data[i+1])%len(rs)], 0, 0)
	}
	return n
}

// routeShapes are graphs whose trees, chains and parallel links
// exercise every case of the peeled build, as graphFrom bytes.
var routeShapes = []struct {
	name string
	data []byte
}{
	{"lone router", []byte{0}},
	{"pair", []byte{1, 0, 1}},
	{"chain", []byte{7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7}},
	// A ring of four, a star of three leaves off r0, and a chain of
	// three off r2 whose middle router holds a chain of two.
	{"pendant trees", []byte{11, 0, 1, 1, 2, 2, 3, 3, 0, 0, 4, 5, 0, 0, 6, 2, 7, 7, 8, 8, 9, 8, 10, 11, 10}},
	// r4 hangs off the ring by two parallel links, so it stays in the
	// core, and holds a chain of two; r7 hangs off r1 by one.
	{"parallel links", []byte{7, 0, 1, 1, 2, 2, 3, 3, 0, 2, 4, 4, 2, 4, 5, 5, 6, 1, 7}},
	// A ring with a leaf, and r5 on no link at all.
	{"isolated router", []byte{5, 0, 1, 1, 2, 2, 3, 3, 0, 3, 4}},
	// A triangle, and apart from it a tree: r3 holds r4 and r5, r5
	// holds r6 and r7 — a component that peels away whole.
	{"tree-only component", []byte{7, 0, 1, 1, 2, 2, 0, 3, 4, 5, 3, 5, 6, 7, 5}},
	// A pair, a triangle, and a leaf on r5, whose only other link is a
	// self-loop: it stays in the core.
	{"self-loop", []byte{6, 0, 1, 2, 3, 3, 4, 4, 2, 5, 5, 6, 5}},
	// Two components, and r1, a tree router with two links, off r2,
	// a core router with four: marking r2's component for r1's row
	// meets codes past r1's unreachable one.
	{"wide attachment", []byte{7, 0, 0, 1, 2, 2, 3, 3, 0, 2, 4, 4, 2, 6, 5, 5, 6, 1, 7}},
	// Links made against creation order: a ring of r3 to r6, and a
	// chain r2–r1–r0 off r6.
	{"reverse order", []byte{6, 6, 5, 5, 4, 4, 3, 3, 6, 2, 1, 1, 0, 0, 6}},
}

// TestRoutesMatchReferenceShapes: on every shape the peeled build's
// table is the whole-graph BFS's, byte for byte.
func TestRoutesMatchReferenceShapes(t *testing.T) {
	for _, tc := range routeShapes {
		n := graphFrom(tc.data)
		if err := n.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		if err := routesMismatch(n); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzComputeRoutes: on any small graph of routers — trees, cycles,
// self-loops, parallel links, several components — the peeled build's
// table is the whole-graph BFS's, byte for byte.
func FuzzComputeRoutes(f *testing.F) {
	for _, tc := range routeShapes {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 257 {
			return // 128 links say all a 32-router graph can
		}
		n := graphFrom(data)
		if err := n.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		if err := routesMismatch(n); err != nil {
			t.Fatal(err)
		}
	})
}
