package core_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
)

// TestCampaignProse covers the §4.1 prose observations that are not in
// any figure: the early (batch 1) traces show higher reachability than
// the later ones (pool churn), and wireless traces vary more than wired.
func TestCampaignProse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace campaign in -short mode")
	}
	d := runSmall(t, campaign.Config{Spec: campaign.Spec{
		TracePlan: map[string]int{
			"U. Glasgow wired":    8,
			"U. Glasgow wireless": 8,
		},
		Seed: 77,
	}}).Dataset

	// Batch 1 vs batch 2 not-ECT reachability (pool churn).
	var batch1, batch2, n1, n2 float64
	for _, tr := range d.Traces {
		udp, _, _, _ := tr.CountReachable()
		if tr.Batch == 1 {
			batch1 += float64(udp)
			n1++
		} else {
			batch2 += float64(udp)
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		t.Fatal("missing batches")
	}
	if batch1/n1 <= batch2/n2 {
		t.Errorf("batch1 avg %.1f not above batch2 avg %.1f (churn missing)", batch1/n1, batch2/n2)
	}

	// Wireless traces show more spread in Figure 2a percentages than
	// wired ones.
	f2 := analysis.ComputeFigure2a(d)
	spread := func(vantage string) (lo, hi float64) {
		lo, hi = 101, -1
		for _, p := range f2.Points {
			if p.Vantage != vantage {
				continue
			}
			if p.Pct < lo {
				lo = p.Pct
			}
			if p.Pct > hi {
				hi = p.Pct
			}
		}
		return lo, hi
	}
	wiredLo, wiredHi := spread("U. Glasgow wired")
	wlLo, wlHi := spread("U. Glasgow wireless")
	if (wlHi - wlLo) <= (wiredHi - wiredLo) {
		t.Errorf("wireless spread %.2f ≤ wired spread %.2f", wlHi-wlLo, wiredHi-wiredLo)
	}
}
