package tcpsim

// PoolShells counts the connection shells waiting on p's free list —
// every shell the pool has made, once no connection is open.
func PoolShells(p *Pool) int {
	n := 0
	for c := p.free; c != nil; c = c.nextFree {
		n++
	}
	return n
}
