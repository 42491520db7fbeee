// Package alloctest reads what code allocates, for the tests that hold
// it to a ceiling. Like goldentest it is imported only from _test.go
// files.
package alloctest

import (
	"cmp"
	"runtime"
	"runtime/debug"
	"slices"
)

// Reading is what one window allocated.
type Reading struct{ Bytes, Allocs uint64 }

// Measure reads what run allocates, with the collector held off and
// GOMAXPROCS at 1 throughout, as testing.AllocsPerRun runs: no
// collection empties the sync.Pools run refills from, and no move to
// another P strands a pool's per-P cache. It runs setup (when not nil)
// and run once as a warm-up, then n windows of run, setup before each,
// off the count. Code on one goroutine needs one window. Code that
// crosses goroutines needs several, since a window also counts what
// other goroutines allocate meanwhile: Measure returns the least
// reading by bytes, the least disturbed, and the median.
func Measure(n int, setup, run func()) (least, median Reading) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if setup == nil {
		setup = func() {}
	}
	setup()
	run()
	rs := make([]Reading, n)
	var before, after runtime.MemStats
	for i := range rs {
		setup()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		rs[i] = Reading{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
	}
	slices.SortFunc(rs, func(a, b Reading) int { return cmp.Compare(a.Bytes, b.Bytes) })
	return rs[0], rs[n/2]
}
