package telemetry

import (
	"testing"
)

// BenchmarkTelemetryHotPath is the perf-gated write path: one counter
// add, one gauge set, one histogram observation and one event-ring append
// per op. scripts/perf_gate.sh pins it at 0 allocs/op — the guarantee
// that lets instrumentation sit on the engine's hot paths without
// reintroducing the allocations PR 3 removed.
func BenchmarkTelemetryHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("repro_bench_total", "bench counter")
	g := r.Gauge("repro_bench_gauge", "bench gauge")
	h := r.Histogram("repro_bench_seconds", "bench histogram", DurationBuckets())
	j := NewEventRing(4096)
	job := "j-000001"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(float64(i%1000) * 1e-3)
		j.Append(EventShardDone, &job, nil, int32(i&7), 0)
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
