//go:build race

package tcpsim

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so the pooled wire buffers under an exchange allocate and the
// 0-allocs assertions cannot hold.
const raceEnabled = true
