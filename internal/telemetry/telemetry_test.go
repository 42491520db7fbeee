package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	g := r.Gauge("repro_test_depth", "a gauge")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}

	// Idempotent re-registration returns the same instrument.
	if r.Counter("repro_test_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	lab := Label{Name: "kind", Value: "x"}
	if r.Counter("repro_test_total", "a counter", lab) == c {
		t.Fatal("distinct labels must yield a distinct instrument")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_test_total", "a counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("repro_test_total", "now a gauge")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_test_seconds", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1066.5 {
		t.Fatalf("sum = %v, want 1066.5", h.Sum())
	}
	var sample *Sample
	for _, s := range r.Snapshot() {
		if s.Name == "repro_test_seconds" {
			s := s
			sample = &s
		}
	}
	if sample == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative: le=1 → {0.5, 1}, le=10 → +{5, 10}, le=100 → +{50},
	// +Inf → +{1000}.
	want := []uint64{2, 4, 5, 6}
	for i, b := range sample.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if !math.IsInf(sample.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", sample.Buckets[3].UpperBound)
	}
	if sample.Count != 6 || sample.Sum != 1066.5 {
		t.Fatalf("snapshot count/sum = %d/%v, want 6/1066.5", sample.Count, sample.Sum)
	}
}

// TestConcurrentWriters hammers every instrument kind from many
// goroutines; run under -race this is the memory-safety proof, and the
// final values prove no increment was lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_total", "c")
	g := r.Gauge("repro_test_gauge", "g")
	h := r.Histogram("repro_test_hist", "h", []float64{10, 100})

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// TestSnapshotConsistencyUnderLoad snapshots while writers are mid-
// flight and asserts every snapshot is internally consistent: bucket
// counts cumulative and monotone, histogram count equal to its +Inf
// bucket, counters monotone across snapshots.
func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_total", "c")
	h := r.Histogram("repro_test_hist", "h", []float64{1, 2, 3})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(float64(i % 5))
				}
			}
		}()
	}

	var prevCounter uint64
	for i := 0; i < 200; i++ {
		for _, s := range r.Snapshot() {
			switch s.Name {
			case "repro_test_total":
				if s.Uint < prevCounter {
					t.Errorf("counter went backwards: %d < %d", s.Uint, prevCounter)
				}
				prevCounter = s.Uint
			case "repro_test_hist":
				var prev uint64
				for bi, b := range s.Buckets {
					if b.Count < prev {
						t.Errorf("bucket %d not cumulative: %d < %d", bi, b.Count, prev)
					}
					prev = b.Count
				}
				if s.Count != s.Buckets[len(s.Buckets)-1].Count {
					t.Errorf("histogram count %d != +Inf bucket %d", s.Count, s.Buckets[len(s.Buckets)-1].Count)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_jobs_total", "jobs", Label{Name: "state", Value: "done"}).Add(3)
	r.Counter("repro_jobs_total", "jobs", Label{Name: "state", Value: `we"ird\n`}).Add(1)
	r.Gauge("repro_depth", "depth").Set(2.5)
	h := r.Histogram("repro_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE repro_jobs_total counter",
		`repro_jobs_total{state="done"} 3`,
		`repro_jobs_total{state="we\"ird\\n"} 1`,
		"# TYPE repro_depth gauge",
		"repro_depth 2.5",
		"# TYPE repro_lat_seconds histogram",
		`repro_lat_seconds_bucket{le="0.1"} 1`,
		`repro_lat_seconds_bucket{le="1"} 2`,
		`repro_lat_seconds_bucket{le="+Inf"} 2`,
		"repro_lat_seconds_sum 0.55",
		"repro_lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One header per family, even with two labeled children.
	if strings.Count(out, "# TYPE repro_jobs_total") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}
