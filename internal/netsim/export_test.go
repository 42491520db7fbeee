package netsim

// LaneCount reports how many delivery lanes s holds: one per distinct
// delay among the links built on it.
func LaneCount(s *Sim) int { return len(s.lanes) }

// RoutesMismatch compares n's route table with the reference BFSes kept
// in routes_test.go, naming the first difference.
func RoutesMismatch(n *Network) error { return routesMismatch(n) }
