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

// ComputeRoutes builds the shortest-path next-hop table with one BFS
// per router. Ties break toward the earliest-created neighbour link,
// which is deterministic and stable — paths do not flap between runs,
// matching the study's observation that the same servers fail from
// every vantage point. The table is always fresh: one a RouteTable
// shares is never written.
func (n *Network) ComputeRoutes() error {
	nr := len(n.routers)
	// Router #r's neighbours, in link order, are to[first[r]:first[r+1]-1],
	// reached over hops[first[r]:first[r+1]-1]; hops[first[r+1]-1] is -1.
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

	// bfs leaves in code, for each router src reaches, the code of the
	// first hop out of src on its path (0 for src itself) and -1 for
	// the rest; it returns how many routers src reaches.
	queue, code := fill[:0], make([]int32, nr) // fill is spent: the BFS queue reuses it
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
	// A row's codes are its router links, plus the unreachable code
	// when the network is not connected; 0 bits hold the one code of a
	// router with one router link.
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
			w = 1 << bits.Len(uint(w-1)) // a power of two: no code straddles a word
		}
		t.rows[r] = hopRow{word: uint32(words), base: uint32(first[r]), width: uint8(w)}
		words += (nr*w + 63) / 64
	}
	// One spare word: a zero-width row past the last one reads it.
	t.codes = make([]uint64, words+1)
	for src, r := range t.rows {
		bfs(src)
		w := uint(r.width)
		for dst, c := range code {
			if c < 0 {
				c = first[src+1] - 1 - first[src]
			}
			bit := uint(dst) * w
			i, s := uint(r.word)+bit/64, bit%64
			t.codes[i] |= uint64(c) << s
		}
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
