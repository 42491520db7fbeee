package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// counterValue finds one counter sample in a registry snapshot by name
// and exact label set.
func counterValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) uint64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for i := range labels {
			if s.Labels[i] != labels[i] {
				match = false
				break
			}
		}
		if match {
			return s.Uint
		}
	}
	t.Fatalf("no sample %s%v in snapshot", name, labels)
	return 0
}

func sumCounter(reg *telemetry.Registry, name string) uint64 {
	var sum uint64
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Uint
		}
	}
	return sum
}

// TestTelemetryOutOfBand is the instrumentation guarantee: attaching a
// Metrics set to a campaign changes nothing about its output. For every
// scenario the merged dataset must be byte-identical with telemetry on
// and off — the flush happens after each shard's simulator has stopped,
// so it cannot consume a PRNG draw or schedule an event — and the
// flushed counters must agree exactly with the Result's own accounting.
func TestTelemetryOutOfBand(t *testing.T) {
	for _, scenario := range []string{ScenarioUncongested, ScenarioCongestedEdge, ScenarioCongestedTransit} {
		t.Run(scenario, func(t *testing.T) {
			off := testConfig()
			off.Scenario = scenario
			plain := runOrFatal(t, off)

			reg := telemetry.NewRegistry()
			on := testConfig()
			on.Scenario = scenario
			on.Metrics = NewMetrics(reg)
			instrumented := runOrFatal(t, on)

			if !bytes.Equal(encode(t, plain.Dataset), encode(t, instrumented.Dataset)) {
				t.Fatal("dataset differs with telemetry attached")
			}

			// The registry's totals are exactly the Result's totals.
			if got := counterValue(t, reg, "repro_campaign_shards_completed_total",
				telemetry.Label{Name: "result", Value: "ok"}); got != uint64(len(instrumented.Shards)) {
				t.Errorf("shards completed = %d, want %d", got, len(instrumented.Shards))
			}
			if got := counterValue(t, reg, "repro_campaign_traces_completed_total"); got != uint64(len(instrumented.Dataset.Traces)) {
				t.Errorf("traces completed = %d, want %d", got, len(instrumented.Dataset.Traces))
			}
			if got := counterValue(t, reg, "repro_sim_events_total"); got != instrumented.Events {
				t.Errorf("events total = %d, want %d", got, instrumented.Events)
			}
			if got := counterValue(t, reg, "repro_sim_phantom_events_total"); got != instrumented.PhantomEvents {
				t.Errorf("phantom events = %d, want %d", got, instrumented.PhantomEvents)
			}
			if got := counterValue(t, reg, "repro_sim_replayed_boundaries_total"); got != instrumented.ReplayedBoundaries {
				t.Errorf("replayed boundaries = %d, want %d", got, instrumented.ReplayedBoundaries)
			}

			// One world per pool goroutine that ran a shard, reset for
			// every further shard — and one of them is the world
			// compiling built, adopted and so counted as a reset:
			// together they account for every shard.
			built := counterValue(t, reg, "repro_sim_worlds_total", telemetry.Label{Name: "op", Value: "instantiate"})
			reset := counterValue(t, reg, "repro_sim_worlds_total", telemetry.Label{Name: "op", Value: "reset"})
			workers := min(runtime.GOMAXPROCS(0), len(instrumented.Shards))
			if built >= uint64(workers) || reset < 1 || built+reset != uint64(len(instrumented.Shards)) {
				t.Errorf("worlds: %d instantiated + %d reset, want fewer than %d workers instantiating and the sum %d shards",
					built, reset, workers, len(instrumented.Shards))
			}

			// The running gauge returns to zero once Run returns.
			for _, s := range reg.Snapshot() {
				if s.Name == "repro_campaign_shards_running" && s.Value != 0 {
					t.Errorf("shards running gauge = %v after Run", s.Value)
				}
			}

			// Congested scenarios flush AQM ground truth; uncongested
			// worlds have no bottleneck queues to flush.
			enq := sumCounter(reg, "repro_aqm_enqueued_total")
			if scenario == ScenarioUncongested {
				if enq != 0 {
					t.Errorf("uncongested run flushed %d AQM enqueues", enq)
				}
			} else if enq == 0 {
				t.Error("congested run flushed no AQM enqueues")
			}
		})
	}
}

// TestTelemetrySharedAcrossRuns pins the control-plane usage: one
// Metrics set attached to several campaigns accumulates sums, and the
// per-shard flush deltas stay coherent (exactly double after running
// the same campaign twice).
func TestTelemetrySharedAcrossRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	cfg.Metrics = NewMetrics(reg)
	first := runOrFatal(t, cfg)
	one := sumCounter(reg, "repro_sim_events_total")
	if one != first.Events {
		t.Fatalf("first run events = %d, want %d", one, first.Events)
	}
	runOrFatal(t, cfg)
	if got := sumCounter(reg, "repro_sim_events_total"); got != 2*one {
		t.Errorf("after second run events = %d, want %d", got, 2*one)
	}
	if got := sumCounter(reg, "repro_campaign_shards_completed_total"); got != 2*uint64(len(first.Shards)) {
		t.Errorf("shards completed = %d, want %d", got, 2*len(first.Shards))
	}
}
