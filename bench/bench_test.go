package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The tail percentile reported is the highest one with at least ten
// samples beyond it.
func TestHighPercentileSelection(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string // "" = no tail percentile is supported
		value float64
	}{
		{10, "", 0},
		{39, "", 0},        // p75 is rank 30: nine beyond
		{40, "p75", 30},    // rank 30: ten beyond
		{48, "p75", 36},    // the mix's cold jobs over three repetitions
		{100, "p90", 90},   // p95 would leave five
		{384, "p95", 365},  // the mix's hits over three repetitions
		{1000, "p99", 990}, // p99.9 would leave one
		{10000, "p99.9", 9990},
	} {
		p, v, ok := highPercentile(seq(tc.n))
		switch {
		case tc.label == "" && ok:
			t.Errorf("n=%d: got p%g, want none", tc.n, p)
		case tc.label != "" && (!ok || percentileLabel(p) != tc.label || v != tc.value):
			t.Errorf("n=%d: got %s = %g (ok %v), want %s = %g", tc.n, percentileLabel(p), v, ok, tc.label, tc.value)
		}
	}
}

// Quartiles follow Python's statistics.quantiles(values, n=4), which
// the acceptance procedure computes spreads with.
func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6})
	if s.N != 10 || s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if one := summarize([]float64{3}); one.Median != 3 || one.Q1 != 3 || one.Q3 != 3 {
		t.Errorf("summarize of one sample = %+v", one)
	}
}

// Self time is a span's duration minus the part of its interval its
// children cover; overlapping children count once, and a child that
// runs past its parent is clipped to it.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRun, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: 70, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 30, 2: 20, 3: 10, 4: 50, 5: 20, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := coveragePct(spans); math.Abs(got-70) > 1e-9 {
		t.Errorf("coverage = %g %%, want 70", got)
	}
	rows := attribution(spans)
	if rows[0].Name != "b" || rows[0].Self != 50 || rows[1].Name != "a" || rows[1].Count != 2 || rows[1].Self != 30 {
		t.Errorf("attribution = %+v", rows)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestNamesWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
	}
	check("end-to-end metric", mFail)
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the harness's tables name the same workloads and
// metrics, in the same order, with the same units, directions, bounds.
func TestBenchmarkJSONParity(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
	}
}

func TestGoldenComplete(t *testing.T) {
	g := loadGolden()
	if g.Seed != goldenSeed {
		t.Errorf("golden seed %d, want %d", g.Seed, goldenSeed)
	}
	for _, w := range []string{wlDirect, wlTransit, wlDistributed} {
		if len(g.DatasetSHA256[w]) != 64 || g.SimEvents[w] == 0 {
			t.Errorf("golden has no pinned dataset or event count for %s", w)
		}
	}
	if g.DatasetSHA256[wlDistributed] != g.DatasetSHA256[wlDirect] {
		t.Error("paper-distributed shares paper-direct's cache key: their golden hashes must be equal")
	}
	if len(g.MixSHA256) != mixJobs {
		t.Errorf("golden pins %d mix datasets, want %d", len(g.MixSHA256), mixJobs)
	}
	for _, name := range []string{"fig2a_reach_pct", "fig5_negotiate_pct", "fig4_preserve_pct", "fig4_asborder_pct"} {
		if tol, ok := g.Paper[name]; !ok || tol.Tol <= 0 {
			t.Errorf("golden has no tolerance for %s", name)
		}
	}
	if g.TransitCE.Observed.Tol <= 0 || g.TransitCE.Queue.Tol <= 0 {
		t.Error("golden has no transit CE band")
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: mWall, Better: lower, Bound: 0.10}
	steady := func(m float64) summary {
		return summary{N: 5, Median: m, Q1: m * 0.99, Q3: m * 1.01, Min: m * 0.98, Max: m * 1.02}
	}
	noisy := func(m float64) summary {
		return summary{N: 5, Median: m, Q1: m * 0.9, Q3: m * 1.1, Min: m * 0.85, Max: m * 1.15}
	}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"same", wall, steady(10), steady(10.5), verdictWithin},
		{"slower", wall, steady(10), steady(11.5), verdictWorse},
		{"faster", wall, steady(10), steady(8), verdictBetter},
		{"noisy and overlapping", wall, noisy(10), noisy(10.5), verdictUnresolved},
		{"noisy but every run faster", wall, noisy(10), noisy(5), verdictBetter},
		{"noisy but every run slower", wall, noisy(10), noisy(20), verdictWorse},
		{"higher is better", metricDef{Better: higher, Bound: 0.10}, steady(10), steady(8), verdictWorse},
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if ratio, _ := judge(wall, steady(10), steady(12)); math.Abs(ratio-1.2) > 1e-12 {
		t.Errorf("ratio = %g, want B/A = 1.2", ratio)
	}
}

// TestQuickPath drives every workload and the kernels once at toy
// size, untraced and traced, through the same functions a real run
// uses — so API drift in campaign, server, worker or apiclient breaks
// this test rather than the next benchmark run — and checks that the
// harness emits exactly the metrics it declares.
func TestQuickPath(t *testing.T) {
	out := t.TempDir()
	o := options{seed: goldenSeed, quick: true, outDir: out}
	emitted := make(map[string]bool)

	kernels := runKernels(o.seed, true, out)
	for _, f := range kernels.Failures {
		t.Errorf("kernels: %s", f)
	}
	for name := range kernels.Metrics {
		emitted[name] = true
	}

	for _, w := range workloads {
		ro := repOptions{Workload: w.Name, Seed: o.seed, Quick: true, OutDir: out}
		untraced := runRep(ro)
		ro.Traced, ro.Rep = true, 1
		traced := runRep(ro)
		wr := aggregate(o, w, []*repResult{untraced}, traced)
		for _, f := range wr.Failures {
			t.Errorf("%s: %s", w.Name, f)
		}
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEnd {
			_, got := wr.EndToEnd[m.Name]
			if want := definedOn(m.Name, w.Name); got != want {
				t.Errorf("%s: end-to-end metric %s emitted=%v, defined=%v", w.Name, m.Name, got, want)
			}
		}
		if _, ok := wr.EndToEnd[mFail]; !ok {
			t.Errorf("%s: %s not emitted", w.Name, mFail)
		}
		for name, v := range contractMetrics(w.Name, wr) {
			if v <= 0 {
				t.Errorf("%s: contract metric %s = %g, must never be 0", w.Name, name, v)
			}
		}
		for name := range wr.PerLayer {
			emitted[name] = true
		}
		for _, r := range []*repResult{untraced, traced} {
			for name := range r.Metrics {
				if unitOf(name) == "" {
					t.Errorf("%s: metric %s is emitted but not declared", w.Name, name)
				}
			}
		}
		if len(traced.spans) == 0 || traced.Metrics["bench.span_coverage_pct"] <= 0 {
			t.Errorf("%s: traced run recorded %d spans, coverage %g %%", w.Name,
				len(traced.spans), traced.Metrics["bench.span_coverage_pct"])
		}
		if err := writeJSONL(tracePath(out, w.Name), traced.spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		} else if back, err := readJSONL(tracePath(out, w.Name)); err != nil || len(back) != len(traced.spans) {
			t.Errorf("%s: trace file round trip: %d of %d spans, err %v", w.Name, len(back), len(traced.spans), err)
		}
	}

	declared := make(map[string]bool)
	for _, m := range perLayer {
		declared[m.Name] = true
		if !emitted[m.Name] {
			t.Errorf("per-layer metric %s is declared but no kernel or traced run emits it", m.Name)
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("per-layer metric %s is emitted but not declared", name)
		}
	}
}
