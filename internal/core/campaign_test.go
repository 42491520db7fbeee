package core_test

import (
	"testing"

	"repro/internal/campaign"
)

// The tests in this file (and the paper-shape and prose tests beside
// it) assert the measurement application's results through the engine
// users actually run — campaign.Run — rather than through a loop of
// their own. They live in core's directory because what they check is
// core's behaviour; they are an external test package because campaign
// imports core.

// runSmall runs cfg on the small world through the shipped engine.
func runSmall(t *testing.T, cfg campaign.Config) *campaign.Result {
	t.Helper()
	cfg.Scale = "small"
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignMini(t *testing.T) {
	got := runSmall(t, campaign.Config{
		TracePlan: map[string]int{
			"Perkins home": 2,
			"EC2 Tokyo":    2,
		},
		Seed: 5,
	}).Dataset

	if len(got.Traces) != 4 {
		t.Fatalf("traces = %d", len(got.Traces))
	}
	vantages := got.Vantages()
	if len(vantages) != 2 {
		t.Errorf("vantages = %v", vantages)
	}
	// Batch structure: first half batch 1, second half batch 2.
	perkins := got.TracesFrom("Perkins home")
	if perkins[0].Batch != 1 || perkins[1].Batch != 2 {
		t.Errorf("batches = %d,%d", perkins[0].Batch, perkins[1].Batch)
	}
	// Reachability sanity: most servers answer not-ECT UDP.
	udp, udpECT, tcp, _ := perkins[0].CountReachable()
	n := len(perkins[0].Observations)
	if udp < n*3/4 {
		t.Errorf("UDP reachable = %d of %d", udp, n)
	}
	if udpECT > udp {
		t.Errorf("ECT reachable (%d) exceeds not-ECT (%d)", udpECT, udp)
	}
	if tcp >= udp {
		t.Errorf("TCP reachable (%d) should trail UDP (%d): not all hosts run web servers", tcp, udp)
	}
}

func TestCampaignWithDiscovery(t *testing.T) {
	res := runSmall(t, campaign.Config{
		TracePlan:       map[string]int{"U. Glasgow wired": 1},
		Discover:        true,
		DiscoveryRounds: 12,
		Seed:            6,
	})
	// Round-robin discovery over 12 rounds must find most of the pool.
	if len(res.Servers) < len(res.World.Servers)*8/10 {
		t.Errorf("discovered %d of %d servers", len(res.Servers), len(res.World.Servers))
	}
	if len(res.Dataset.Traces[0].Observations) != len(res.Servers) {
		t.Error("trace does not cover discovered set")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := campaign.Config{TracePlan: map[string]int{"EC2 Sydney": 2}, Seed: 99}
	a, b := runSmall(t, cfg).Dataset, runSmall(t, cfg).Dataset
	if len(a.Traces) != len(b.Traces) {
		t.Fatal("trace counts differ")
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		for j := range ta.Observations {
			if ta.Observations[j] != tb.Observations[j] {
				t.Fatalf("trace %d observation %d differs:\n%+v\n%+v",
					i, j, ta.Observations[j], tb.Observations[j])
			}
		}
	}
}
