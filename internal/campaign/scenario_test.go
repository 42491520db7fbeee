package campaign

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/topology"
)

// TestUncongestedScenarioIsDefault: the "uncongested" name must be a
// pure alias for the default configuration — byte-identical dataset,
// no bottlenecks, no congestion samples.
func TestUncongestedScenarioIsDefault(t *testing.T) {
	base := runOrFatal(t, testConfig())
	cfg := testConfig()
	cfg.Scenario = ScenarioUncongested
	named := runOrFatal(t, cfg)
	if !bytes.Equal(encode(t, base.Dataset), encode(t, named.Dataset)) {
		t.Fatal("scenario \"uncongested\" dataset differs from the default")
	}
	if len(base.Congestion) != 0 || len(named.Congestion) != 0 {
		t.Fatal("uncongested runs must produce no congestion samples")
	}
	if len(named.World.Bottlenecks) != 0 {
		t.Fatal("uncongested world has bottlenecks")
	}
}

func TestUnknownScenarioErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = "congested"
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

// congestedConfig is a reduced congested-edge campaign: two home
// vantages (whose traces see the congested access), one trace each.
func congestedConfig(scenario string) Config {
	cfg := testConfig()
	cfg.Scenario = scenario
	cfg.TracePlan = map[string]int{"Perkins home": 1, "McQuistin home": 1}
	cfg.Stride = 0 // skip traceroutes; congestion is the subject here
	return cfg
}

// TestCongestedEdgeMarksAndReports: RED bottlenecks must CE-mark ECT
// traffic, drop some not-ECT traffic under load, and surface both the
// receiver-side observation and the queue ground truth.
func TestCongestedEdgeMarksAndReports(t *testing.T) {
	res := runOrFatal(t, congestedConfig(ScenarioCongestedEdge))
	if len(res.Congestion) != 2 {
		t.Fatalf("congestion samples = %d, want 2", len(res.Congestion))
	}
	if len(res.World.Bottlenecks) == 0 {
		t.Fatal("congested-edge world has no bottlenecks")
	}
	var totalMarked, totalECT, totalInCE uint64
	for _, s := range res.Congestion {
		totalMarked += s.QueueCEMarked
		totalECT += s.QueueECT
		totalInCE += s.InCE
		if s.Utilization == 0 {
			t.Errorf("%s: sample lacks utilization", s.Vantage)
		}
	}
	if totalECT == 0 {
		t.Fatal("no ECT wire packets traversed the bottlenecks")
	}
	if totalMarked == 0 {
		t.Fatal("RED bottlenecks never CE-marked an ECT packet")
	}
	if totalInCE == 0 {
		t.Fatal("no CE-marked packet was observed arriving at a vantage")
	}
	rep := analysis.ComputeCEMarkReport(res.Congestion)
	if rep.ObservedCERatio <= 0 || rep.QueueMarkRatio <= 0 {
		t.Fatalf("report ratios = %+v", rep)
	}
}

// TestCEReportMonotoneInUtilization: holding everything else fixed and
// raising the configured bottleneck utilization must never lower the
// aggregate CE ratios — the property that makes the verbose-mode
// estimator usable as a congestion signal.
func TestCEReportMonotoneInUtilization(t *testing.T) {
	ratios := func(util float64) (observed, groundTruth float64) {
		topo := topology.SmallConfig()
		topo.CongestedVantageAccess = true
		topo.BottleneckRate = 125_000
		topo.BottleneckQueueLen = 50
		topo.BottleneckAQM = "red"
		topo.BottleneckUtilization = util
		res := runOnTopology(t, congestedConfig(""), topo)
		rep := analysis.ComputeCEMarkReport(res.Congestion)
		return rep.ObservedCERatio, rep.QueueMarkRatio
	}

	var prevObs, prevGT float64 = -1, -1
	var obsSeries, gtSeries []float64
	for _, util := range []float64{0.2, 0.9, 1.4} {
		obs, gt := ratios(util)
		obsSeries = append(obsSeries, obs)
		gtSeries = append(gtSeries, gt)
		if obs < prevObs || gt < prevGT {
			t.Fatalf("CE ratios not monotone in utilization: observed %v, ground truth %v",
				obsSeries, gtSeries)
		}
		prevObs, prevGT = obs, gt
	}
	if obsSeries[len(obsSeries)-1] == 0 || gtSeries[len(gtSeries)-1] == 0 {
		t.Fatalf("saturated bottleneck produced no CE: observed %v, ground truth %v",
			obsSeries, gtSeries)
	}
}
