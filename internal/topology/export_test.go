package topology

// StateHash exposes the test-build state digest to the external test
// package, which can import the campaign engine to dirty a world.
func StateHash(w *World) (string, []string) { return w.stateHash() }

// Spare is the world the blueprint still holds for TakeSpare, nil once
// it has been taken, read without taking it.
func Spare(bp *Blueprint) *World { return bp.spare.Load() }
