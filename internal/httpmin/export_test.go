package httpmin

import "repro/internal/tcpsim"

// PoolShells counts the probe and serve shells waiting in p — every
// shell the simulation has made, once no exchange is in flight.
func PoolShells(p *tcpsim.Pool) (gets, serves int) {
	sh, _ := p.UserData.(*shells)
	if sh == nil {
		return 0, 0
	}
	for g := sh.gets; g != nil; g = g.next {
		gets++
	}
	for sc := sh.serves; sc != nil; sc = sc.next {
		serves++
	}
	return gets, serves
}
