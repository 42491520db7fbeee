package netsim

import (
	"math/bits"
	"slices"
)

// hopTable is the forwarding table ComputeRoutes builds, shared by the
// networks instantiated from one frozen topology (ExportRoutes,
// ImportRoutes). A source router's row holds a code per destination
// router, as few bits wide as its router links need, rounded up to a
// power of two so that no code straddles a word: code c is
// hops[row.base+c], its c-th router link in creation order — the index
// in Network.links shifted left once, the direction it sends on in the
// low bit — and one past the last, -1: unreachable, a code only a
// network that is not connected needs.
type hopTable struct {
	codes []uint64
	rows  []hopRow
	hops  []int32
}

// hopRow locates a source router's row: its first word in codes, its
// first hop in hops and its code width in bits.
type hopRow struct {
	word, base uint32
	width      uint8
}

// at returns the hop toward router dst in hopTable's encoding, -1 when
// dst is unreachable, from the row whose codes start at word, width
// bits each, and whose hops start at base. dst is not the row's own
// router: a router's own address is Router.route's case, which never
// asks the table.
func (t *hopTable) at(word, base uint32, width uint8, dst int) int32 {
	bit := uint(dst) * uint(width)
	return t.hops[uint(base)+uint(t.codes[uint(word)+bit/64]>>(bit%64))&(1<<width-1)]
}

// ComputeRoutes builds the shortest-path next-hop table. Ties break
// toward the earliest-created neighbour link, which is deterministic
// and stable — paths do not flap between runs, matching the study's
// observation that the same servers fail from every vantage point. The
// table is always fresh: one a RouteTable shares is never written.
// It BFSes only the graph's 2-core and fills the trees peeled off it
// top-down, each tree router's entries from its parent's (DESIGN.md §9.1).
func (n *Network) ComputeRoutes() error {
	n.links = slices.DeleteFunc(n.links, func(l *Link) bool { return l == nil }) // ReplaceAttachment's holes
	nr := len(n.routers)
	// Router #r's neighbours, in link order, are to[first[r]:first[r+1]-1],
	// reached over hops[first[r]:first[r+1]-1]; hops[first[r+1]-1] is -1
	// and to[first[r+1]-1], *up(r), r's parent once the trees are peeled.
	const core = -1
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
		hops[end-1], to[end-1] = -1, core
	}
	up := func(r int32) *int32 { return &to[first[r+1]-1] }

	// Peel the trees: a router with at most one link left to the core
	// leaves it, its parent that link's router or, with none left, the
	// router itself, a root. Parallel links count apart. order lists
	// peeled routers children first; the BFS queue takes its spare room.
	deg, order := fill, make([]int32, 0, nr) // fill is spent
	for r := range int32(nr) {
		if deg[r] -= first[r]; deg[r] <= 1 {
			order = append(order, r)
		}
	}
	for i := 0; i < len(order); i++ {
		r := order[i]
		*up(r) = r
		for _, p := range to[first[r] : first[r+1]-1] {
			if *up(p) == core {
				*up(r) = p
				if deg[p]--; deg[p] == 1 {
					order = append(order, p)
				}
				break
			}
		}
	}
	code := deg // deg is spent
	// bfs codes the core routers src reaches over the core alone as a
	// whole-graph BFS would: no path between core routers enters a tree.
	var queue []int32
	bfs := func(src, unset int32) {
		code[src] = 0
		queue = append(order[len(order):], src)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for e := first[cur]; e < first[cur+1]-1; e++ {
				if next := to[e]; *up(next) == core && code[next] == unset {
					code[next] = code[cur]
					if cur == src {
						code[next] = e - first[src]
					}
					queue = append(queue, next)
				}
			}
		}
	}
	// The network is connected when it has one component: a core one,
	// which a BFS floods, or a tree one, which has a root.
	comps := 0
	for r := range int32(nr) {
		code[r] = -1
	}
	for r := range int32(nr) {
		if p := *up(r); p == r || p == core && code[r] < 0 {
			bfs(r, -1) // from a root, it reaches the root alone
			comps++
		}
	}
	// A row's codes are its router links, plus the unreachable code
	// when the network is not connected; 0 bits hold the one code of a
	// router with one router link.
	unreachable := int32(1)
	if comps == 1 {
		unreachable = 0
	}
	t := &hopTable{rows: make([]hopRow, nr), hops: hops}
	words := 0
	for r := range t.rows {
		codes := first[r+1] - first[r] - 1 + unreachable
		w := bits.Len32(uint32(max(codes-1, 0)))
		if w > 0 {
			w = 1 << bits.Len(uint(w-1)) // a power of two: no code straddles a word
		}
		t.rows[r] = hopRow{word: uint32(words), base: uint32(first[r]), width: uint8(w)}
		words += (nr*w + 63) / 64
	}
	// One spare word: a zero-width row past the last one reads it.
	t.codes = make([]uint64, words+1)
	for src, row := range t.rows {
		if row.width == 0 {
			continue // no bits to set
		}
		s, links := int32(src), to[first[src]:first[src+1]-1]
		gone := int32(len(links)) // the unreachable code
		if *up(s) == core {
			for d := range code {
				code[d] = gone
			}
			bfs(s, gone)
		} else {
			// A tree router reaches its component, that of the core router
			// or root atop it, through its parent outside its subtree.
			out, a := int32(slices.Index(links, *up(s))), s
			for ; comps > 1 && *up(a) != core && *up(a) != a; a = *up(a) {
			}
			if comps > 1 {
				for d := range code {
					code[d] = -1
				}
				bfs(a, -1)
			}
			for d, c := range code {
				if code[d] = out; comps > 1 && c < 0 {
					code[d] = gone
				}
			}
		}
		// Top-down through the trees: s's children take their links,
		// other tree routers their parents' codes.
		for _, d := range slices.Backward(order) {
			if p := *up(d); p != s {
				code[d] = code[p]
			} else if d != s {
				code[d] = int32(slices.Index(links, d))
			}
		}
		code[s] = 0
		w, word, bit, acc := uint(row.width), row.word, uint(0), uint64(0)
		for _, c := range code {
			acc |= uint64(c) << bit
			if bit += w; bit == 64 {
				t.codes[word], word, bit, acc = acc, word+1, 0, 0
			}
		}
		t.codes[word] |= acc
	}
	n.adoptRoutes(t)
	return nil
}

// adoptRoutes installs t as n's forwarding table, each router's row
// copied into the router.
func (n *Network) adoptRoutes(t *hopTable) {
	for i, r := range n.routers {
		row := t.rows[i]
		r.hopWord, r.hopBase, r.hopWidth = row.word, row.base, row.width
	}
	n.hops, n.routed = t, true
}
