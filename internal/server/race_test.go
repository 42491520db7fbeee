//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so net/http's pooled copy buffers allocate and an allocation
// bound cannot hold.
const raceEnabled = true
