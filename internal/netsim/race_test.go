//go:build race

package netsim

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so the pooled wire buffers allocate and a 0-allocs assertion
// cannot hold.
const raceEnabled = true
