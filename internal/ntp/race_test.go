//go:build race

package ntp

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so the pooled wire buffers under a probe allocate and a
// 0-allocs assertion cannot hold. The probe's own state is on a free
// list the host owns and is asserted either way.
const raceEnabled = true
