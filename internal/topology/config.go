// Package topology generates the simulated Internet the measurement
// campaign runs over: a tiered AS graph (tier-1 core, regional transit,
// stub edge networks), 2500 NTP pool servers distributed per the paper's
// Table 1, the 13 vantage points of Section 3, the pool's DNS directory,
// and the calibrated population of middleboxes whose behaviour the study
// set out to measure.
//
// Every stochastic choice draws from the simulation's seeded PRNG, so a
// (seed, Config) pair denotes exactly one world. The calibration
// constants in DefaultConfig are chosen so the generated world reproduces
// the paper's observed shapes (see DESIGN.md §6); each is a plain field
// that ablation benchmarks can vary.
package topology

import (
	"time"

	"repro/internal/geo"
)

// Config parameterises world generation.
type Config struct {
	// Servers is the NTP pool size (paper: 2500).
	Servers int
	// RegionServers fixes the per-region server counts; the default is
	// the paper's Table 1. Values must sum to Servers.
	RegionServers map[geo.Region]int

	// ServersPerStub controls edge network size (default 10).
	ServersPerStub int
	// Tier1Count is the number of core ASes (default 5).
	Tier1Count int
	// StubsPerTransit controls how many edge networks home to one
	// transit AS (default 7).
	StubsPerTransit int

	// ECTUDPFirewalledServers is the count of servers behind site
	// firewalls that silently drop ECT-marked UDP — the paper's
	// persistent differential-reachability population ("between 9 and
	// 14, depending on the location"). Default 11.
	ECTUDPFirewalledServers int
	// NotECTFirewalledServers is the count behind TOS-whitelisting
	// firewalls dropping not-ECT UDP (Figure 3b's persistent spike).
	// Default 1.
	NotECTFirewalledServers int
	// SourceScopedNotECTServers is the count whose not-ECT drops apply
	// only to cloud-vantage sources (the Phoenix Public Library pair).
	// Default 2.
	SourceScopedNotECTServers int
	// SourceScopedECTServers is the count of servers whose site firewall
	// drops ECT UDP only from a subset of cloud sources, giving those
	// vantages a few extra persistently unreachable servers (the paper's
	// per-location spread of 9–14). Default 3.
	SourceScopedECTServers int

	// BleachedBorderStubs / BleachedInteriorStubs are the counts of edge
	// networks whose ingress (border) or interior router bleaches the
	// ECN field of all transit traffic; SometimesBleachedStubs bleach
	// with probability 0.5 (the "125 hops only sometimes strip"
	// population). Defaults 5 / 2 / 2 — about 60% of strip locations at
	// AS boundaries, per §4.2's 59.1%.
	BleachedBorderStubs    int
	BleachedInteriorStubs  int
	SometimesBleachedStubs int

	// WebServerFraction is the share of pool hosts running a web server.
	// The paper reached 1334 of the ~2253 live hosts over TCP → 0.592.
	WebServerFraction float64
	// TCPECNFraction is the share of web servers willing to negotiate
	// ECN (paper: 82.0%).
	TCPECNFraction float64
	// FirewalledTCPECNFraction is the (lower) negotiation rate of sites
	// whose firewalls drop ECT UDP, producing Table 2's second column
	// while keeping the overall correlation weak. Default 0.55.
	FirewalledTCPECNFraction float64
	// BrokenECEFraction is the share of ECN-negotiating web servers
	// that never echo ECE for CE-marked segments — Kühlewind et al.
	// measured ≈10% of negotiating hosts as unusable this way. Each
	// ECN-negotiating server draws its roll at build time, and under a
	// congested scenario a broken server answers CE without ECE.
	// Default 0.10.
	BrokenECEFraction float64

	// FlakyServers is the count of servers with congestion-prone access
	// links, the source of transient differential reachability (the
	// paper found ~4× more transiently than persistently unreachable
	// servers). Default 45.
	FlakyServers int
	// FlakyCongestionProb is the per-trace probability a flaky server's
	// access link is congested (default 0.25).
	FlakyCongestionProb float64
	// FlakyCongestionLoss is the loss rate while congested (default 0.65).
	FlakyCongestionLoss float64

	// OnlineProbBatch1/2 model pool churn between the April/May and
	// July/August trace batches (later traces show lower reachability).
	OnlineProbBatch1 float64
	OnlineProbBatch2 float64

	// Link delays.
	CoreDelay, TransitDelay, EdgeDelay, AccessDelay time.Duration

	// --- Congestion substrate (DESIGN.md §7) ---
	// The fields below place bandwidth-limited, AQM-managed bottlenecks
	// in the generated world. All zero (the default) leaves every link
	// an infinite-rate pipe: no queue ever builds, no router ever marks
	// CE, and generated worlds are byte-identical to the pre-substrate
	// behaviour.

	// BottleneckRate is the serialization rate of every placed
	// bottleneck, in bytes per second. Required (>0) when any
	// Congested* placement is enabled.
	BottleneckRate float64
	// BottleneckQueueLen is each bottleneck's RED buffer in packets.
	// Required (>0) when any Congested* placement is enabled. Every
	// bottleneck is RED: it CE-marks ECT packets and drops not-ECT ones
	// per RFC 3168.
	BottleneckQueueLen int
	// BottleneckUtilization is the phantom cross-traffic offered load
	// as a fraction of BottleneckRate; it sets the congestion operating
	// point the CE-mark report is monotone in.
	BottleneckUtilization float64
	// CongestedVantageAccess bottlenecks both directions of every
	// vantage access link — the campaign's congested-edge scenario.
	CongestedVantageAccess bool
	// CongestedTransit bottlenecks both directions of every transit
	// AS's core↔down link — the congested-transit scenario, where the
	// marking router sits mid-path like the paper's hypothesised AQM
	// deployments.
	CongestedTransit bool
}

// DefaultConfig returns the paper-scale calibration.
func DefaultConfig() Config {
	return Config{
		Servers: 2500,
		RegionServers: map[geo.Region]int{
			geo.Africa:       22,
			geo.Asia:         190,
			geo.Australia:    68,
			geo.Europe:       1664,
			geo.NorthAmerica: 522,
			geo.SouthAmerica: 32,
			geo.Unknown:      2,
		},
		ServersPerStub:  10,
		Tier1Count:      5,
		StubsPerTransit: 7,

		ECTUDPFirewalledServers:   11,
		NotECTFirewalledServers:   1,
		SourceScopedNotECTServers: 2,
		SourceScopedECTServers:    3,

		BleachedBorderStubs:    5,
		BleachedInteriorStubs:  2,
		SometimesBleachedStubs: 2,

		WebServerFraction:        0.592,
		TCPECNFraction:           0.82,
		FirewalledTCPECNFraction: 0.55,
		BrokenECEFraction:        0.10,

		FlakyServers:        45,
		FlakyCongestionProb: 0.25,
		FlakyCongestionLoss: 0.65,

		OnlineProbBatch1: 0.925,
		OnlineProbBatch2: 0.895,

		CoreDelay:    8 * time.Millisecond,
		TransitDelay: 4 * time.Millisecond,
		EdgeDelay:    2 * time.Millisecond,
		AccessDelay:  time.Millisecond,
	}
}

// SmallConfig returns a reduced world for unit tests: same structure,
// two orders of magnitude fewer hosts.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Servers = 120
	c.RegionServers = map[geo.Region]int{
		geo.Europe:       60,
		geo.NorthAmerica: 30,
		geo.Asia:         16,
		geo.Australia:    6,
		geo.SouthAmerica: 4,
		geo.Africa:       2,
		geo.Unknown:      2,
	}
	c.ECTUDPFirewalledServers = 4
	c.NotECTFirewalledServers = 1
	c.SourceScopedNotECTServers = 1
	c.BleachedBorderStubs = 2
	c.BleachedInteriorStubs = 1
	c.SometimesBleachedStubs = 1
	c.FlakyServers = 6
	return c
}

// regionCountries assigns plausible countries (and pool DNS sub-zones)
// per region; stubs cycle through their region's list.
var regionCountries = map[geo.Region][]string{
	geo.Africa:       {"za", "ke", "eg"},
	geo.Asia:         {"jp", "sg", "cn", "in", "kr", "hk"},
	geo.Australia:    {"au", "nz"},
	geo.Europe:       {"gb", "de", "fr", "nl", "se", "ch", "it", "es", "pl", "fi"},
	geo.NorthAmerica: {"us", "ca", "mx"},
	geo.SouthAmerica: {"br", "ar", "cl"},
	geo.Unknown:      {""},
}

// regionZone is the pool's region-level DNS sub-zone for each region.
var regionZone = map[geo.Region]string{
	geo.Africa:       "africa",
	geo.Asia:         "asia",
	geo.Australia:    "oceania",
	geo.Europe:       "europe",
	geo.NorthAmerica: "north-america",
	geo.SouthAmerica: "south-america",
}

// regionCoords places regions on the map for Figure 1 rendering.
var regionCoords = map[geo.Region][2]float64{
	geo.Africa:       {0.0, 25.0},
	geo.Asia:         {30.0, 110.0},
	geo.Australia:    {-27.0, 140.0},
	geo.Europe:       {50.0, 10.0},
	geo.NorthAmerica: {40.0, -95.0},
	geo.SouthAmerica: {-15.0, -55.0},
	geo.Unknown:      {0.0, 0.0},
}
