package netsim

// LaneCount reports how many delivery lanes s holds: one per distinct
// delay among the links built on it.
func LaneCount(s *Sim) int { return len(s.lanes) }
