//go:build race

package campaign

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so the pooled wire buffers under a probe allocate and a byte
// bound on a shard cannot hold.
const raceEnabled = true
