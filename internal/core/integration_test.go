package core_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/topology"
)

// TestPaperShapeEndToEnd runs a reduced campaign over a small world —
// four traces from every vantage plus the full traceroute sweep, through
// campaign.Run, the engine every command and the service run — and
// asserts the qualitative results of every section of the paper. This is
// the repository's keystone test: if it passes, the substrate,
// measurement engine and analysis agree with the study's findings.
func TestPaperShapeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	res := runSmall(t, campaign.Config{Spec: campaign.Spec{
		Traces: 4,
		Stride: 1,
		Seed:   2015,
	}})
	d, w := res.Dataset, res.World
	if len(d.Traces) != 4*13 {
		t.Fatalf("campaign incomplete: %d traces", len(d.Traces))
	}

	// §4.1 / Figure 2a: high but sub-100% ECT reachability; every trace
	// above 80% (the paper's small world bound of 90% needs the full
	// population; the small pool amplifies per-server effects).
	f2a := analysis.ComputeFigure2a(d)
	if f2a.Average < 88 || f2a.Average >= 100 {
		t.Errorf("Figure 2a average = %.2f%%; paper: 98.97%%", f2a.Average)
	}
	if f2a.Minimum < 70 {
		t.Errorf("Figure 2a minimum = %.2f%%", f2a.Minimum)
	}

	// Figure 2b: converse higher than forward direction.
	f2b := analysis.ComputeFigure2b(d)
	if f2b.Average <= f2a.Average {
		t.Errorf("Figure 2b (%.2f%%) should exceed 2a (%.2f%%)", f2b.Average, f2a.Average)
	}

	// §4.1 prose: not-ECT reachability below pool size (churn) but high.
	poolSize := float64(len(w.Servers))
	if f2a.AvgUDPReachable < poolSize*0.75 || f2a.AvgUDPReachable >= poolSize {
		t.Errorf("avg UDP reachable = %.0f of %.0f", f2a.AvgUDPReachable, poolSize)
	}

	// Figure 3a: persistent spikes ≈ firewalled servers (4 in
	// SmallConfig, ±scoped extras), similar from every vantage.
	f3a := analysis.ComputeFigure3a(d)
	cfg := topology.SmallConfig()
	for v, n := range f3a.SpikesOver50 {
		min := cfg.ECTUDPFirewalledServers - 2
		max := cfg.ECTUDPFirewalledServers + cfg.SourceScopedECTServers + 2
		if n < min || n > max {
			t.Errorf("%s: %d spikes, want %d..%d", v, n, min, max)
		}
	}

	// Figure 3b: far fewer converse spikes — the planted drop-not-ECT
	// servers plus at most one small-sample transient (4 traces per
	// vantage make a 3-of-4 flaky streak possible).
	f3b := analysis.ComputeFigure3b(d)
	if f3b.GlobalSpikes > cfg.NotECTFirewalledServers+cfg.SourceScopedNotECTServers+1 {
		t.Errorf("Figure 3b spikes = %d", f3b.GlobalSpikes)
	}
	if f3b.GlobalSpikes == 0 {
		t.Error("Figure 3b should show at least one persistent converse server")
	}

	// Figure 5: TCP reachability well below UDP; negotiation ≈ 82%.
	f5 := analysis.ComputeFigure5(d)
	if f5.AvgReachable >= f2a.AvgUDPReachable {
		t.Errorf("TCP reachable (%.0f) should trail UDP (%.0f)", f5.AvgReachable, f2a.AvgUDPReachable)
	}
	if f5.NegotiationRate < 70 || f5.NegotiationRate > 92 {
		t.Errorf("ECN negotiation rate = %.1f%%; paper: 82.0%%", f5.NegotiationRate)
	}

	// Figure 6: the measured point extends the literature trend.
	f6 := analysis.ComputeFigure6(f5)
	if f6.Measured.Pct <= analysis.HistoricalECN[len(analysis.HistoricalECN)-1].Pct {
		t.Errorf("measured %.1f%% does not extend the 2014 value", f6.Measured.Pct)
	}

	// Table 2: weak correlation; most ECT-UDP-blocked servers still
	// negotiate ECN over TCP.
	t2 := analysis.ComputeTable2(d)
	if t2.Phi > 0.35 {
		t.Errorf("phi = %.3f; paper reports weak correlation", t2.Phi)
	}
	for _, row := range t2.Rows {
		if row.AvgUnreachableECT > 0 && row.AvgAlsoFailTCPECN >= row.AvgUnreachableECT {
			t.Errorf("%s: all ECT-blocked servers also fail TCP ECN — too correlated", row.Vantage)
		}
	}

	// §4.2 / Figure 4: the traceroute sweep of the same campaign.
	f4 := analysis.ComputeFigure4(res.PathObs, w.ASN)
	if f4.RespondedObservations == 0 {
		t.Fatal("no traceroute observations")
	}
	preservedFrac := float64(f4.PreservedObservations) / float64(f4.RespondedObservations)
	if preservedFrac < 0.85 {
		t.Errorf("preserved fraction = %.3f; paper ≈ 0.99", preservedFrac)
	}
	if f4.StripLocationRouters == 0 {
		t.Error("no strip locations despite bleaching stubs")
	}
	if f4.CEObservations != 0 {
		t.Errorf("CE observations = %d; paper saw none", f4.CEObservations)
	}
	if f4.BoundaryFraction == 0 {
		t.Error("no AS-boundary strips; placement broken")
	}
	// Ground truth check: inferred strip routers correspond to the
	// bleach-policy routers the topology placed. The inference can
	// overcount slightly: a sometimes-bleacher that spares the probe at
	// its own TTL but bleaches a deeper probe makes its downstream
	// neighbour look like the strip point — the same attribution
	// ambiguity the paper's methodology has — so allow a small excess.
	placed := len(w.BleachRouters)
	if f4.StripLocationRouters < placed-1 || f4.StripLocationRouters > placed+3 {
		t.Errorf("inferred %d strip routers, topology placed %d", f4.StripLocationRouters, placed)
	}

	t.Logf("fig2a avg %.2f%% (min %.2f%%) | fig2b avg %.2f%% | fig5 %0.f/%0.f = %.1f%% | fig4 preserved %.2f%% boundary %.1f%% | phi %.3f",
		f2a.Average, f2a.Minimum, f2b.Average, f5.AvgNegotiated, f5.AvgReachable,
		f5.NegotiationRate, 100*preservedFrac, 100*f4.BoundaryFraction, t2.Phi)
}
