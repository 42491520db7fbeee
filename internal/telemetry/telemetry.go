// Package telemetry is the engine's flight-recorder core: an
// allocation-free metrics substrate (atomic counters, gauges and
// fixed-bucket histograms behind a registry) plus a lock-free
// ring buffer of recent events, with snapshot-based exposition in both
// Prometheus text and JSON form.
//
// Two constraints shape the design (DESIGN.md §12):
//
//   - Out-of-band by construction. Nothing in this package touches a
//     simulation PRNG, schedules an event, or appears in dataset bytes:
//     instruments are plain atomics the instrumented code writes and the
//     exposition layer reads. The campaign determinism grid therefore
//     hashes identically with telemetry attached or absent — the
//     property internal/campaign's out-of-band test pins.
//   - Zero allocation on the write path. Counter.Add, Gauge.Set,
//     Histogram.Observe and EventRing.Append allocate nothing once the
//     instrument exists (scripts/perf_gate.sh pins
//     BenchmarkTelemetryHotPath at 0 allocs/op), so instrumentation can
//     sit next to the packet hot path without re-introducing the
//     allocations PR 3 removed.
//
// Exposition is snapshot-based: readers call Registry.Snapshot, which
// loads every atomic once into plain values, and render from the
// snapshot. A scrape therefore sees a consistent point-in-time view of
// each instrument (never a half-updated histogram) and holds no lock
// that could back-pressure writers.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use, but instruments are normally created through a
// Registry so they appear in exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (current queue depth,
// workers busy, bytes resident). Stored as IEEE-754 bits in a uint64;
// Set is a single store, Add a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative-exposition
// buckets chosen at construction. Observe is lock-free: one bucket
// increment, one count increment, one CAS-looped sum update. Bounds
// are upper-inclusive (Prometheus `le`) with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: instrument bucket counts are small (≤ ~16) and the
	// scan touches one cache line, which beats a branchy binary search.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is the default latency bound set, in seconds: 100µs
// to ~100s in roughly 3× steps — wide enough for both an HTTP cache
// hit and a paper-scale shard.
func DurationBuckets() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100}
}

// Label is one constant name=value pair fixed at registration.
// Instruments with the same name and different labels form one
// exposition family (e.g. repro_aqm_ce_marked_total{discipline="red"}).
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Kind discriminates instrument types in snapshots.
type Kind string

// The instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn, when non-nil, is a gauge whose value is computed at snapshot
	// time (queue depth, uptime). It must be safe to call from any
	// goroutine.
	fn func() float64
}

// Registry holds a process subsystem's instruments. Registration is
// idempotent: asking for an already-registered (name, labels) pair
// returns the existing instrument, so independent components can share
// a family without coordinating. Mismatched re-registration (same
// name, different kind or help) panics — it is always a programming
// error.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// metricKey builds the identity key for (name, labels).
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte('{')
		sb.WriteString(l.Name)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte('}')
	}
	return sb.String()
}

// register returns the existing metric for (name, labels) or files a
// new one built by mk.
func (r *Registry) register(name, help string, kind Kind, labels []Label, mk func(*metric)) *metric {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: append([]Label(nil), labels...), kind: kind}
	mk(m)
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, KindCounter, labels, func(m *metric) { m.counter = new(Counter) })
	return m.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, KindGauge, labels, func(m *metric) { m.gauge = new(Gauge) })
	return m.gauge
}

// GaugeFunc registers a gauge computed by fn at snapshot time. fn must
// be safe to call from any goroutine. Re-registering the same (name,
// labels) keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, labels, func(m *metric) { m.fn = fn })
}

// Histogram registers (or fetches) a histogram over the given bucket
// upper bounds (sorted ascending; +Inf is implicit). Bounds are only
// consulted for a new registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m := r.register(name, help, KindHistogram, labels, func(m *metric) {
		if len(bounds) == 0 {
			bounds = DurationBuckets()
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not sorted", name))
		}
		m.hist = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	})
	return m.hist
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound (Prometheus
	// `le`); +Inf for the last bucket.
	UpperBound float64 `json:"-"`
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64 `json:"count"`
}

// bucketJSON is Bucket's wire form: the bound travels as a string
// because encoding/json rejects the +Inf float every histogram's last
// bucket carries.
type bucketJSON struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{LE: formatFloat(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	le, err := strconv.ParseFloat(w.LE, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bucket bound %q: %w", w.LE, err)
	}
	b.UpperBound, b.Count = le, w.Count
	return nil
}

// Sample is one instrument's point-in-time state.
type Sample struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   Kind    `json:"kind"`
	Labels []Label `json:"labels,omitempty"`

	// Value carries counter and gauge readings (a counter's as float64
	// for uniformity; Uint carries the exact count).
	Value float64 `json:"value"`
	Uint  uint64  `json:"uint,omitempty"`

	// Histogram fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot loads every instrument once and returns the samples sorted
// by (name, labels) — families contiguous, order stable across calls.
// Histograms are snapshotted bucket-first, so a concurrent Observe can
// only make Count >= the bucket total, never smaller; the exposition
// clamps to the bucket total to keep each rendered histogram
// internally consistent.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	samples := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Help: m.help, Kind: m.kind, Labels: m.labels}
		switch {
		case m.counter != nil:
			s.Uint = m.counter.Value()
			s.Value = float64(s.Uint)
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		case m.fn != nil:
			s.Value = m.fn()
		case m.hist != nil:
			h := m.hist
			s.Buckets = make([]Bucket, len(h.buckets))
			var cum uint64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
			}
			// The bucket total is the consistent count: Observe bumps its
			// bucket before the shared count, so the count atomic may
			// lag or (read later) lead the bucket reads, but the bucket
			// sum always describes exactly the observations this
			// snapshot's buckets contain.
			s.Count = cum
			s.Sum = h.Sum()
		}
		samples = append(samples, s)
	}
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		return labelString(samples[i].Labels) < labelString(samples[j].Labels)
	})
	return samples
}

// labelString renders labels in Prometheus form ({} elided).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
