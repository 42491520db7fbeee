package telemetry

import (
	"testing"
)

// hotPath is the instrumented write path: one counter add, one gauge
// set and one histogram observation per call.
func hotPath() func(i int) {
	r := NewRegistry()
	c := r.Counter("repro_bench_total", "bench counter")
	g := r.Gauge("repro_bench_gauge", "bench gauge")
	h := r.Histogram("repro_bench_seconds", "bench histogram", DurationBuckets())
	return func(i int) {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(float64(i%1000) * 1e-3)
	}
}

// BenchmarkTelemetryHotPath is one hotPath call per op.
func BenchmarkTelemetryHotPath(b *testing.B) {
	write := hotPath()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}

// TestTelemetryHotPathAllocFree pins the write path at 0 allocations —
// the guarantee that lets instrumentation sit on the engine's hot paths
// without reintroducing the allocations the pooled packet path removed.
func TestTelemetryHotPathAllocFree(t *testing.T) {
	write := hotPath()
	i := 0
	if n := testing.AllocsPerRun(1000, func() { write(i); i++ }); n > 0 {
		t.Errorf("telemetry write path allocates %.2f objects/op, want 0", n)
	}
}

// BenchmarkTelemetryCounter isolates the cheapest instrument — the
// one that could plausibly sit per-packet.
func BenchmarkTelemetryCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("repro_bench_total", "bench counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetrySnapshot measures the read path a scrape pays on
// a realistically sized registry.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter("repro_bench_total", "c", Label{Name: "i", Value: string(rune('a' + i))}).Add(uint64(i))
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram("repro_bench_seconds", "h", DurationBuckets(),
			Label{Name: "i", Value: string(rune('a' + i))})
		h.Observe(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
