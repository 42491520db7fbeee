package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/topology"
	"repro/internal/traceroute"
)

// SpecVersion is the current campaign-spec schema version. A Spec
// carries it in its "spec" field so stored and submitted specs remain
// interpretable when the schema grows.
const SpecVersion = 1

// Execution strategies a spec may select. Local has the coordinator's
// own loopback workers claim the shard plan; distributed hands it to
// remote workers over the v1 worker API.
const (
	ExecutionLocal       = "local"
	ExecutionDistributed = "distributed"
)

// Spec is the canonical, serializable description of a campaign: the
// single configuration surface behind the CLI flags, the REPRO_*
// environment knobs and the HTTP control plane's request body. It is
// the JSON-round-trippable subset of Config — everything that selects
// *which* campaign runs and *how* it is executed, but none of the
// in-process hooks (ShardHook, Topology overrides) that cannot
// serialize.
//
// Two forms matter:
//
//   - Submitted form: any subset of fields; zero values mean "default".
//     Validate reports field-level errors for out-of-vocabulary values.
//   - Canonical form: Normalized fills every default explicitly
//     (version, scale, scenario, slice count, batch-2 fraction,
//     discovery rounds), so Canonical bytes —
//     encoding/json with fixed field order and sorted trace-plan keys —
//     are identical for every submitted spelling of the same campaign.
//
// The canonical bytes ground the content-addressed result cache: see
// CacheKey.
type Spec struct {
	// Version is the spec schema version ("spec" in JSON). Zero is
	// normalized to SpecVersion; anything else unknown is invalid.
	Version int `json:"spec"`

	// Scale selects the generated world: "paper" (2500 servers) or
	// "small" (120 servers). Empty normalizes to "paper".
	Scale string `json:"scale"`
	// Scenario names the congestion scenario (see Scenarios). Empty
	// normalizes to "uncongested".
	Scenario string `json:"scenario"`

	// Traces is the per-vantage trace count; 0 selects the paper's full
	// 210-trace plan. Ignored when TracePlan is set.
	Traces int `json:"traces"`
	// TracePlan maps vantage name → trace count, overriding Traces.
	// Keys must be Table 2 vantage names; JSON marshals them sorted, so
	// plans canonicalize.
	TracePlan map[string]int `json:"trace_plan,omitempty"`
	// Batch2Fraction is the share of each vantage's traces run under
	// batch-2 conditions. Zero normalizes to 0.5.
	Batch2Fraction float64 `json:"batch2_fraction"`

	// Discover enumerates the pool via DNS inside each shard before
	// probing; DiscoveryRounds overrides the polling rounds (zero
	// normalizes to 50).
	Discover        bool `json:"discover"`
	DiscoveryRounds int  `json:"discovery_rounds"`

	// Stride samples every Nth server for the traceroute campaign; zero
	// disables traceroutes. (Unlike the knobs above, zero is meaningful
	// here and is NOT rewritten by Normalized.)
	Stride int `json:"stride"`

	// Seed is the campaign seed; the same spec with the same seed
	// produces a byte-identical dataset.
	Seed int64 `json:"seed"`

	// Execution shape. These knobs change how the campaign is
	// scheduled, never what it computes: the merged dataset is
	// byte-identical across all of them (the determinism-grid
	// invariant), so CacheKey excludes them.
	//
	// Execution selects the execution strategy: "local" (the default —
	// the coordinator's in-process loopback workers claim the shards) or
	// "distributed" (the coordinator only exposes the shard plan;
	// remote `reprod worker` processes claim (vantage, slice) shards
	// over the API under lease/heartbeat semantics and upload results,
	// which the coordinator merges in canonical order). Like every
	// other shape knob the choice cannot change a dataset byte, so it
	// is stripped from the cache key.
	Execution string `json:"execution"`
	// Workers bounds concurrent shards (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// SlicesPerVantage splits each vantage's quota into contiguous
	// sub-shards (0 normalizes to 1).
	SlicesPerVantage int `json:"slices_per_vantage"`
}

// DefaultSpec is the fully-explicit default campaign: the paper plan’s
// knob values that FromEnv has always defaulted to, in canonical form.
func DefaultSpec() Spec {
	return Spec{
		Version:          SpecVersion,
		Scale:            "paper",
		Scenario:         ScenarioUncongested,
		Traces:           6,
		Batch2Fraction:   0.5,
		DiscoveryRounds:  50,
		Stride:           3,
		Seed:             2015,
		Execution:        ExecutionLocal,
		Workers:          0,
		SlicesPerVantage: 1,
	}
}

// Normalized returns the spec with every defaultable zero value made
// explicit. Two submitted specs that select the same campaign have
// equal normalized forms — and therefore equal Canonical bytes.
func (s Spec) Normalized() Spec {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Scale == "" {
		s.Scale = "paper"
	}
	if s.Scenario == "" {
		s.Scenario = ScenarioUncongested
	}
	if s.TracePlan != nil {
		// Traces is shadowed by an explicit plan; zero it so the two
		// spellings of "this exact plan" canonicalize identically, and
		// copy the map so normalization never aliases the caller's.
		s.Traces = 0
		plan := make(map[string]int, len(s.TracePlan))
		for k, v := range s.TracePlan {
			plan[k] = v
		}
		s.TracePlan = plan
	}
	if s.Batch2Fraction == 0 {
		s.Batch2Fraction = 0.5
	}
	if s.DiscoveryRounds == 0 {
		s.DiscoveryRounds = 50
	}
	if s.Execution == "" {
		s.Execution = ExecutionLocal
	}
	if s.SlicesPerVantage == 0 {
		s.SlicesPerVantage = 1
	}
	return s
}

// FieldError locates one invalid spec field for structured API errors.
type FieldError struct {
	Field string `json:"field"` // JSON field name, e.g. "scenario"
	Msg   string `json:"error"`
}

// ValidationError aggregates every invalid field of a spec, so an API
// client sees all problems in one round trip.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Msg
	}
	return "campaign: invalid spec: " + strings.Join(parts, "; ")
}

// Validate checks the spec's vocabulary and ranges. It returns nil or a
// *ValidationError naming every offending field. Defaultable zero
// values are always valid (Normalized gives them their meaning).
func (s Spec) Validate() error {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if s.Version != 0 && s.Version != SpecVersion {
		add("spec", "unknown spec version %d (this build speaks %d)", s.Version, SpecVersion)
	}
	switch s.Scale {
	case "", "small", "paper":
	default:
		add("scale", "unknown scale %q: want small or paper", s.Scale)
	}
	if err := ApplyScenario(&topology.Config{}, s.Scenario); err != nil {
		add("scenario", "unknown scenario %q: want one of %s", s.Scenario, strings.Join(Scenarios(), ", "))
	}
	if s.Traces < 0 {
		add("traces", "must not be negative (0 selects the paper plan)")
	} else if s.Traces > MaxTracesPerVantage {
		add("traces", "must not exceed %d per vantage, got %d", MaxTracesPerVantage, s.Traces)
	}
	if s.TracePlan != nil {
		known := make(map[string]bool, len(topology.VantageNames()))
		for _, name := range topology.VantageNames() {
			known[name] = true
		}
		names := make([]string, 0, len(s.TracePlan))
		for name := range s.TracePlan {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !known[name] {
				add("trace_plan", "unknown vantage %q", name)
			} else if n := s.TracePlan[name]; n < 0 {
				add("trace_plan", "vantage %q: negative trace count %d", name, n)
			} else if n > MaxTracesPerVantage {
				add("trace_plan", "vantage %q: trace count %d exceeds %d", name, n, MaxTracesPerVantage)
			}
		}
	}
	if s.Batch2Fraction < 0 || s.Batch2Fraction > 1 {
		add("batch2_fraction", "must be in [0, 1], got %v", s.Batch2Fraction)
	}
	if s.DiscoveryRounds < 0 {
		add("discovery_rounds", "must not be negative")
	}
	if s.Stride < 0 {
		add("stride", "must not be negative (0 disables traceroutes)")
	}
	switch s.Execution {
	case "", ExecutionLocal, ExecutionDistributed:
	default:
		add("execution", "unknown execution strategy %q: want local or distributed", s.Execution)
	}
	if s.Workers < 0 {
		add("workers", "must not be negative (0 means GOMAXPROCS)")
	}
	if s.SlicesPerVantage < 0 {
		add("slices_per_vantage", "must not be negative")
	} else if s.SlicesPerVantage > MaxTracesPerVantage {
		// More slices than traces is legal (the surplus slices are
		// empty), but the planner walks every slice of every vantage:
		// past the trace bound the walk is pure waste on the submit path.
		add("slices_per_vantage", "must not exceed %d, got %d", MaxTracesPerVantage, s.SlicesPerVantage)
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// Canonical returns the spec's canonical JSON encoding: normalized
// (every default explicit), fixed field order, trace-plan keys sorted.
// Every submitted spelling of the same campaign yields the same bytes.
// Invalid specs have no canonical form.
func (s Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Normalized())
}

// CacheKey returns the content address of the spec's result: the hex
// SHA-256 of the canonical bytes with the execution-shape knobs
// (execution strategy, workers, slices) reset to their defaults. Those
// knobs are excluded because the merged dataset is proven byte-identical
// across all of them — the determinism grid that cmd/determinism checks
// in CI — so a campaign re-submitted with a different worker count must
// hit the cache, not re-simulate.
func (s Spec) CacheKey() (string, error) {
	s = s.Normalized()
	s.Execution = ExecutionLocal
	s.Workers = 0
	s.SlicesPerVantage = 1
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// Config derives the executable campaign configuration from the spec:
// normalize, validate, then map onto Config with the engine's standard
// traceroute parameters. Programmatic knobs Spec cannot express
// (Topology overrides, ShardHook) are left zero for the caller.
func (s Spec) Config() (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	s = s.Normalized()
	var plan map[string]int
	if s.TracePlan != nil {
		plan = make(map[string]int, len(s.TracePlan))
		for k, v := range s.TracePlan {
			plan[k] = v
		}
	}
	return Config{
		Scale:            s.Scale,
		Scenario:         s.Scenario,
		TracePlan:        plan,
		Traces:           s.Traces,
		Batch2Fraction:   s.Batch2Fraction,
		Discover:         s.Discover,
		DiscoveryRounds:  s.DiscoveryRounds,
		Stride:           s.Stride,
		Traceroute:       traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
		Seed:             s.Seed,
		Workers:          s.Workers,
		SlicesPerVantage: s.SlicesPerVantage,
	}, nil
}

// ParseSpec decodes a submitted JSON spec strictly: unknown fields are
// a field-level error (a typo'd knob must not silently run the default
// campaign), and the result is validated. The returned spec is NOT
// normalized — callers that need canonical form use Canonical or
// CacheKey.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		if f, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			return Spec{}, &ValidationError{Fields: []FieldError{
				{Field: strings.Trim(f, "\""), Msg: "unknown field"},
			}}
		}
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("campaign: parse spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// SpecFromEnv builds a Spec by layering the REPRO_* environment knobs
// over DefaultSpec:
//
//	REPRO_SCALE=small|paper    world size             (default paper)
//	REPRO_SCENARIO=name        congestion scenario    (default uncongested; see Scenarios)
//	REPRO_TRACES=N|paper       traces per vantage     (default 6; "paper" = the full 210-trace plan)
//	REPRO_STRIDE=N             traceroute sampling    (default 3: every 3rd server)
//	REPRO_SEED=N               campaign seed          (default 2015)
//	REPRO_WORKERS=N            parallel shard workers (default GOMAXPROCS)
//	REPRO_SLICES=N             sub-shards per vantage (default 1)
//
// Malformed values are an error, not a silent fallback: these knobs
// select entire measurement campaigns, and a typo'd REPRO_TRACES=1O
// quietly running the default plan would waste a paper-scale run.
func SpecFromEnv() (Spec, error) {
	s := DefaultSpec()
	if err := s.applyEnv(os.Getenv); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// applyEnv overlays the REPRO_* knobs (read through getenv; empty means
// unset) onto the spec in place.
func (s *Spec) applyEnv(getenv func(string) string) error {
	if v := getenv("REPRO_SCALE"); v != "" {
		if v != "small" && v != "paper" {
			return fmt.Errorf("campaign: REPRO_SCALE=%q: want small or paper", v)
		}
		s.Scale = v
	}
	if v := getenv("REPRO_SCENARIO"); v != "" {
		if err := ApplyScenario(&topology.Config{}, v); err != nil {
			return fmt.Errorf("REPRO_SCENARIO: %w", err)
		}
		s.Scenario = v
	}
	var err error
	if s.Seed, err = envInt64(getenv, "REPRO_SEED", s.Seed); err != nil {
		return err
	}
	envCount := func(key string, def int) (int, error) {
		n, err := envInt64(getenv, key, int64(def))
		if err != nil {
			return 0, err
		}
		if n < 0 {
			return 0, fmt.Errorf("campaign: %s=%d: must not be negative", key, n)
		}
		return int(n), nil
	}
	if s.Stride, err = envCount("REPRO_STRIDE", s.Stride); err != nil {
		return err
	}
	if s.Workers, err = envCount("REPRO_WORKERS", s.Workers); err != nil {
		return err
	}
	if s.SlicesPerVantage, err = envCount("REPRO_SLICES", s.SlicesPerVantage); err != nil {
		return err
	}
	switch v := getenv("REPRO_TRACES"); v {
	case "":
	case "paper":
		// The "paper" sentinel (Traces=0) selects the full 210-trace
		// plan; every other value must be a positive count so a stray
		// REPRO_TRACES=0 cannot silently launch it.
		s.Traces = 0
	default:
		if s.Traces, err = envCount("REPRO_TRACES", s.Traces); err != nil {
			return err
		}
		if s.Traces < 1 {
			return fmt.Errorf("campaign: REPRO_TRACES=%q: want a count ≥ 1 or \"paper\"", v)
		}
	}
	return nil
}

func envInt64(getenv func(string) string, key string, def int64) (int64, error) {
	v := getenv(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("campaign: %s=%q: not an integer", key, v)
	}
	return n, nil
}
