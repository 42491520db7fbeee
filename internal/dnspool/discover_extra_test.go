package dnspool

import (
	"testing"

	"repro/internal/packet"
)

func TestDiscoverSkipsUnknownZones(t *testing.T) {
	sim, client, resolver, _ := simDirectory(t, 6, nil)
	var got DiscoverResult
	// One legitimate zone plus one that does not exist: NXDOMAIN answers
	// must not stall or abort the loop.
	Discover(client, DiscoverConfig{
		Resolver: resolver,
		Zones:    []string{"xx"},
		Rounds:   3,
	}, func(r DiscoverResult) { got = r })
	sim.Run()
	if len(got.Servers) != 6 {
		t.Errorf("discovered %d of 6 despite bogus zone", len(got.Servers))
	}
	// The bogus zone was still queried (and answered NXDOMAIN).
	if got.QueriesSent != 3*2 {
		t.Errorf("queries = %d, want 6", got.QueriesSent)
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	run := func() []packet.Addr {
		sim, client, resolver, _ := simDirectory(t, 12, map[int]string{0: "uk", 5: "uk"})
		var got DiscoverResult
		Discover(client, DiscoverConfig{
			Resolver: resolver,
			Zones:    []string{"uk"},
			Rounds:   4,
		}, func(r DiscoverResult) { got = r })
		sim.Run()
		return got.Servers
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("server %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestDiscoverDedupAcrossZones(t *testing.T) {
	// Every server is in both the apex and its country zone: the result
	// must still be deduplicated.
	zones := map[int]string{}
	for i := 0; i < 8; i++ {
		zones[i] = "de"
	}
	sim, client, resolver, _ := simDirectory(t, 8, zones)
	var got DiscoverResult
	Discover(client, DiscoverConfig{
		Resolver: resolver,
		Zones:    []string{"de"},
		Rounds:   4,
	}, func(r DiscoverResult) { got = r })
	sim.Run()
	if len(got.Servers) != 8 {
		t.Errorf("deduplicated set = %d, want 8", len(got.Servers))
	}
}

func TestResolveRotationIsFair(t *testing.T) {
	d := NewDirectory()
	const n = 23 // not a multiple of AnswersPerQuery: exercises wrap
	for i := 0; i < n; i++ {
		d.AddServer(poolAddr(i))
	}
	counts := map[packet.Addr]int{}
	const rounds = 4 * n / AnswersPerQuery // each member seen ≈4 times
	for q := 0; q < rounds; q++ {
		addrs, _ := d.Resolve(BaseZone)
		for _, a := range addrs {
			counts[a]++
		}
	}
	if len(counts) != n {
		t.Fatalf("rotation reached %d of %d members", len(counts), n)
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("rotation unfair: counts span [%d, %d]", min, max)
	}
}
