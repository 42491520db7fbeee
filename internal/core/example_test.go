package core_test

import (
	"fmt"

	"repro/internal/campaign"
)

// A complete miniature reproduction: run a one-vantage campaign over
// the small world and read off the headline comparison.
func Example() {
	res, err := campaign.Run(campaign.Config{
		Scale:     "small",
		TracePlan: map[string]int{"EC2 Ireland": 1},
		Seed:      2015,
	})
	if err != nil {
		panic(err)
	}

	udp, udpECT, _, _ := res.Dataset.Traces[0].CountReachable()
	fmt.Printf("ECT(0) reachability is within a few percent of not-ECT: %v\n",
		float64(udpECT)/float64(udp) > 0.9)
	// Output: ECT(0) reachability is within a few percent of not-ECT: true
}
