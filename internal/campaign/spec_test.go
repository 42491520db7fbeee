package campaign

import (
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestSpecCanonicalIdentical: every spelling of the same campaign —
// zero-valued defaults, explicit defaults, or a JSON body with fields
// in any order — must canonicalize to identical bytes.
func TestSpecCanonicalIdentical(t *testing.T) {
	implicit := Spec{Scale: "small", Traces: 2, Seed: 7}
	explicit := Spec{
		Version:          SpecVersion,
		Scale:            "small",
		Scenario:         ScenarioUncongested,
		Traces:           2,
		Batch2Fraction:   0.5,
		DiscoveryRounds:  50,
		Seed:             7,
		SlicesPerVantage: 1,
	}
	a, err := implicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical forms differ:\n  implicit: %s\n  explicit: %s", a, b)
	}

	// A submitted JSON body with shuffled field order parses to the
	// same canonical bytes.
	parsed, err := ParseSpec([]byte(`{"seed": 7, "traces": 2, "scale": "small", "spec": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parsed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatalf("parsed canonical differs:\n  struct: %s\n  parsed: %s", a, c)
	}
}

// TestSpecCanonicalRoundTrip: canonical bytes decode back to the
// normalized spec, and re-canonicalize to the same bytes (idempotence).
func TestSpecCanonicalRoundTrip(t *testing.T) {
	s := Spec{
		Scale:    "small",
		Scenario: ScenarioCongestedEdge,
		TracePlan: map[string]int{
			"U. Glasgow wired": 3,
			"Perkins home":     1,
		},
		Seed:     42,
		Discover: true,
		Stride:   2,
	}
	b1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("canonical not idempotent:\n  first:  %s\n  second: %s", b1, b2)
	}
}

// TestSpecCacheKeyIgnoresExecutionShape: knobs the determinism grid
// proves irrelevant to the merged bytes (execution strategy, workers,
// slices) must not change the cache key; semantic knobs must.
func TestSpecCacheKeyIgnoresExecutionShape(t *testing.T) {
	base := Spec{Scale: "small", Traces: 2, Seed: 7}
	ref, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	same := []Spec{
		{Scale: "small", Traces: 2, Seed: 7, Workers: 13},
		{Scale: "small", Traces: 2, Seed: 7, SlicesPerVantage: 8},
		{Scale: "small", Traces: 2, Seed: 7, Execution: ExecutionDistributed},
	}
	for _, s := range same {
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k != ref {
			t.Errorf("execution-shape knob changed the cache key: %+v", s)
		}
	}

	different := []Spec{
		{Scale: "small", Traces: 2, Seed: 8},
		{Scale: "small", Traces: 3, Seed: 7},
		{Scale: "paper", Traces: 2, Seed: 7},
		{Scale: "small", Traces: 2, Seed: 7, Scenario: ScenarioCongestedEdge},
		{Scale: "small", Traces: 2, Seed: 7, Discover: true},
		{Scale: "small", Traces: 2, Seed: 7, Stride: 1},
	}
	for _, s := range different {
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Errorf("semantic knob did not change the cache key: %+v", s)
		}
	}
}

// TestSpecValidateFieldErrors: every invalid field is reported, with
// its JSON name, in one ValidationError.
func TestSpecValidateFieldErrors(t *testing.T) {
	s := Spec{
		Version:          3,
		Scale:            "medium",
		Scenario:         "congested",
		Traces:           -1,
		Batch2Fraction:   1.5,
		Stride:           -2,
		Workers:          -4,
		SlicesPerVantage: -1,
		TracePlan:        map[string]int{"Atlantis": 3},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("want validation error")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	want := []string{"spec", "scale", "scenario", "traces", "batch2_fraction",
		"stride", "workers", "slices_per_vantage", "trace_plan"}
	got := map[string]bool{}
	for _, f := range verr.Fields {
		got[f.Field] = true
	}
	for _, field := range want {
		if !got[field] {
			t.Errorf("field %q not reported; got %v", field, verr.Fields)
		}
	}
}

// TestParseSpecStrict: unknown fields are a field-level error, not a
// silently ignored knob.
func TestParseSpecStrict(t *testing.T) {
	_, err := ParseSpec([]byte(`{"scale": "small", "tracez": 5}`))
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError for unknown field, got %v", err)
	}
	if len(verr.Fields) != 1 || verr.Fields[0].Field != "tracez" {
		t.Fatalf("want unknown-field error naming tracez, got %v", verr.Fields)
	}
	if _, err := ParseSpec([]byte(`{"scale": `)); err == nil {
		t.Fatal("want error for truncated JSON")
	}
	if _, err := ParseSpec([]byte(`{}{}`)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}
}

// TestSpecConfigDerivation: Config derives field-for-field, invalid
// specs refuse to derive, and the spec's trace plan is copied, not
// aliased.
func TestSpecConfigDerivation(t *testing.T) {
	s := Spec{
		Scale:            "small",
		Scenario:         ScenarioCongestedTransit,
		Traces:           4,
		Seed:             -99,
		Workers:          3,
		SlicesPerVantage: 2,
		Stride:           5,
		Discover:         true,
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != "small" || cfg.Scenario != ScenarioCongestedTransit ||
		cfg.Traces != 4 || cfg.Seed != -99 || cfg.Workers != 3 ||
		cfg.SlicesPerVantage != 2 || cfg.Stride != 5 || !cfg.Discover ||
		cfg.Scheduler != netsim.SchedWheel || cfg.XTraffic != netsim.XTrafficLazy {
		t.Fatalf("Config = %+v", cfg)
	}
	if cfg.Traceroute.ProbesPerHop != 1 || cfg.Traceroute.StopAfterSilent != 2 {
		t.Fatalf("Traceroute defaults = %+v", cfg.Traceroute)
	}

	if _, err := (Spec{Scale: "galactic"}).Config(); err == nil {
		t.Fatal("invalid spec must not derive a Config")
	}

	p := Spec{Scale: "small", TracePlan: map[string]int{"Perkins home": 2}}
	cfg, err = p.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.TracePlan["Perkins home"] = 99
	if p.TracePlan["Perkins home"] != 2 {
		t.Fatal("Config aliased the spec's trace plan")
	}
}

// TestConfigShards: the exported shard plan matches the engine's
// canonical partition.
func TestConfigShards(t *testing.T) {
	cfg := Config{Scale: "small", Traces: 3, SlicesPerVantage: 2}
	shards := cfg.Shards()
	if len(shards) == 0 {
		t.Fatal("no shards planned")
	}
	total := 0
	sweeps := 0
	for i, sh := range shards {
		total += sh.Traces
		if sh.Sweep {
			sweeps++
			if sh.Slice != 0 {
				t.Errorf("shard %d: sweep on slice %d", i, sh.Slice)
			}
		}
		if i > 0 {
			prev := shards[i-1]
			if sh.Shard < prev.Shard || (sh.Shard == prev.Shard && sh.Slice <= prev.Slice) {
				t.Errorf("shards out of canonical order at %d: %+v after %+v", i, sh, prev)
			}
		}
	}
	vantages := len(topology.VantageNames())
	if total != 3*vantages {
		t.Errorf("planned traces = %d, want %d", total, 3*vantages)
	}
	if sweeps != vantages {
		t.Errorf("sweep slices = %d, want one per vantage (%d)", sweeps, vantages)
	}
}

// TestSpecSurfaceIsTheExperiment pins the public spec surface: the
// canonical default spec has exactly these keys, and the differential
// oracles (heap scheduler, event-per-boundary cross-traffic) are not
// among them — not as JSON fields, not as flags. They are reachable
// only through Config's typed fields.
func TestSpecSurfaceIsTheExperiment(t *testing.T) {
	b, err := DefaultSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{"spec", "scale", "scenario", "traces", "batch2_fraction",
		"discover", "discovery_rounds", "stride", "seed", "execution", "workers",
		"slices_per_vantage"}
	if len(doc) != len(want) {
		t.Errorf("canonical default spec has %d keys, want %d: %s", len(doc), len(want), b)
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("canonical default spec lacks %q: %s", k, b)
		}
	}

	for _, body := range []string{`{"scheduler":"heap"}`, `{"xtraffic":"events"}`} {
		_, err := ParseSpec([]byte(body))
		var verr *ValidationError
		if !errors.As(err, &verr) || len(verr.Fields) != 1 || verr.Fields[0].Msg != "unknown field" ||
			!strings.Contains(body, verr.Fields[0].Field) {
			t.Errorf("ParseSpec(%s) = %v, want an unknown-field error", body, err)
		}
	}

	for _, grid := range []*GridDefaults{nil, {Scenarios: Scenarios(), Workers: []int{1}, Slices: []int{1}}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		BindSpecFlags(fs, FlagOptions{Base: DefaultSpec(), Grid: grid})
		for _, name := range []string{"sched", "xtraffic"} {
			if fs.Lookup(name) != nil {
				t.Errorf("flag -%s is registered (grid=%v)", name, grid != nil)
			}
		}
	}
}

// TestSpecValidateBounds: per-vantage trace and slice counts are
// bounded so that every virtual epoch is representable and the planner
// cannot be made to spin on the submit path; everything inside the
// bound — including more slices than traces — stays legal.
func TestSpecValidateBounds(t *testing.T) {
	if at := sweepStartAt(MaxTracesPerVantage); at <= traceStartAt(MaxTracesPerVantage-1) {
		t.Fatalf("epoch of a full quota overflows: sweep at %v", at)
	}
	cases := []struct {
		name  string
		spec  Spec
		field string // offending field; empty = valid
	}{
		{"slices far past the bound", Spec{Scale: "small", Traces: 2, SlicesPerVantage: 300_000_000}, "slices_per_vantage"},
		{"slices just past the bound", Spec{Scale: "small", Traces: 2, SlicesPerVantage: MaxTracesPerVantage + 1}, "slices_per_vantage"},
		{"traces overflow the epoch clock", Spec{Scale: "small", Traces: 15_250}, "traces"},
		{"traces just past the bound", Spec{Scale: "small", Traces: MaxTracesPerVantage + 1}, "traces"},
		{"plan count past the bound", Spec{Scale: "small", TracePlan: map[string]int{"EC2 Tokyo": MaxTracesPerVantage + 1}}, "trace_plan"},
		{"more slices than traces", Spec{Scale: "small", Traces: 2, SlicesPerVantage: 8}, ""},
		{"at the bound", Spec{Scale: "small", Traces: MaxTracesPerVantage, SlicesPerVantage: MaxTracesPerVantage}, ""},
		{"plan at the bound", Spec{Scale: "small", TracePlan: map[string]int{"EC2 Tokyo": MaxTracesPerVantage}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				if cfg, err := tc.spec.Config(); err != nil || len(cfg.Shards()) == 0 {
					t.Fatalf("valid spec does not plan: %v", err)
				}
				return
			}
			var verr *ValidationError
			if !errors.As(err, &verr) || len(verr.Fields) != 1 || verr.Fields[0].Field != tc.field {
				t.Fatalf("want one field error on %q, got %v", tc.field, err)
			}
		})
	}
}

// FuzzParseSpec: any bytes on the spec boundary yield either a typed
// error or a spec whose canonical form is idempotent and whose shard
// plan computes promptly — never a panic, never a spin. The largest
// legal plan (MaxTracesPerVantage slices × 13 vantages) computes in
// tens of milliseconds; a second is the spin alarm.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0}`,
		`{"scale":"small","traces":2,"slices_per_vantage":300000000}`,
		`{"scale":"small","traces":15250}`,
		`{"scale":"small","trace_plan":{"EC2 Tokyo":3,"Perkins home":1},"execution":"distributed"}`,
		`{"scheduler":"heap"}`,
		`{"traces":1e3}`,
		`{"seed":-9223372036854775808,"batch2_fraction":1}`,
		`{}{}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		b1, err := s.Canonical()
		if err != nil {
			t.Fatalf("parsed spec has no canonical form: %v", err)
		}
		back, err := ParseSpec(b1)
		if err != nil {
			t.Fatalf("canonical bytes do not parse: %v\n%s", err, b1)
		}
		b2, err := back.Canonical()
		if err != nil || string(b1) != string(b2) {
			t.Fatalf("canonical not idempotent (%v):\n  first:  %s\n  second: %s", err, b1, b2)
		}
		if _, err := s.CacheKey(); err != nil {
			t.Fatalf("parsed spec has no cache key: %v", err)
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatalf("parsed spec derives no config: %v", err)
		}
		start := time.Now()
		n := len(cfg.Shards())
		if d := time.Since(start); d > time.Second || n > MaxTracesPerVantage*len(topology.VantageNames()) {
			t.Fatalf("plan of %d shards took %v", n, d)
		}
	})
}
