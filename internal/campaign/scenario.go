package campaign

import (
	"fmt"

	"repro/internal/topology"
)

// The named campaign scenarios, selectable via Spec.Scenario, the
// spec's "scenario" field and the tools' -scenario flag. A
// scenario chooses where (if anywhere) the congestion substrate places
// its bandwidth-limited AQM bottlenecks; everything else about the
// world is untouched, so the uncongested scenario regenerates datasets
// byte-identical to a configuration that never mentions scenarios.
const (
	// ScenarioUncongested is today's behaviour and the default: links
	// are infinite-rate pipes, congestion exists only as the calibrated
	// loss constants, and no router marks CE — the Internet the paper
	// actually measured.
	ScenarioUncongested = "uncongested"
	// ScenarioCongestedEdge bottlenecks every vantage access link (1
	// Mbit/s, RED, 90% background load): the measurement traffic
	// contends with cross traffic at the edge, RED CE-marks ECT packets
	// and drops not-ECT ones, and the vantage observes the CE ratio the
	// verbose-mode estimator consumes.
	ScenarioCongestedEdge = "congested-edge"
	// ScenarioCongestedTransit bottlenecks the transit ASes' core↔down
	// links (10 Mbit/s, RED, 85% background load): congestion mid-path,
	// shared by every stub homed to the transit.
	ScenarioCongestedTransit = "congested-transit"
)

// Scenarios lists the selectable scenario names.
func Scenarios() []string {
	return []string{ScenarioUncongested, ScenarioCongestedEdge, ScenarioCongestedTransit}
}

// ApplyScenario rewrites topo's congestion-substrate knobs for the
// named scenario. The empty string and ScenarioUncongested leave topo
// untouched. Unknown names are an error — scenarios gate measurement
// campaigns, and a typo must not silently run the wrong experiment.
func ApplyScenario(topo *topology.Config, scenario string) error {
	switch scenario {
	case "", ScenarioUncongested:
		return nil
	case ScenarioCongestedEdge:
		topo.CongestedVantageAccess = true
		topo.BottleneckRate = 125_000 // 1 Mbit/s access
		topo.BottleneckQueueLen = 50
		topo.BottleneckUtilization = 0.9
		return nil
	case ScenarioCongestedTransit:
		topo.CongestedTransit = true
		topo.BottleneckRate = 1_250_000 // 10 Mbit/s transit
		topo.BottleneckQueueLen = 100
		topo.BottleneckUtilization = 0.85
		return nil
	default:
		return fmt.Errorf("campaign: unknown scenario %q (want %v)", scenario, Scenarios())
	}
}
