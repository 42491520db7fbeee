package topology

// StateHash exposes the test-build state digest to the external test
// package, which can import the campaign engine to dirty a world.
func StateHash(w *World) (string, []string) { return w.stateHash() }
