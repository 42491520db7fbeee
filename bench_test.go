// Package repro's root benchmark harness regenerates every table and
// figure of McQuistin & Perkins (IMC 2015) from a paper-scale simulated
// campaign. One benchmark per artefact: the measured body is the
// analysis reduction; the campaign itself runs once as shared setup and
// is amortised across all benchmarks.
//
// Knobs (environment, parsed by campaign.FromEnv):
//
//	REPRO_SCALE=small|paper   world size            (default paper)
//	REPRO_SCENARIO=name       congestion scenario   (default uncongested)
//	REPRO_TRACES=N|paper      traces per vantage    (default 6; "paper" = the full 210-trace plan)
//	REPRO_STRIDE=N            traceroute sampling   (default 3: every 3rd server)
//	REPRO_SEED=N              campaign seed         (default 2015)
//	REPRO_WORKERS=N           parallel shard workers (default GOMAXPROCS)
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers for each artefact are printed once per run
// and recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rtp"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// fixture is the shared campaign output.
type fixture struct {
	world      *topology.World
	data       *dataset.Dataset
	pathObs    [][]traceroute.PathObservation
	congestion []analysis.CEMarkSample
}

var (
	fixOnce sync.Once
	fix     *fixture
)

// benchFixture runs the sharded measurement + traceroute campaign exactly
// once per test binary, via the campaign engine's REPRO_* configuration.
func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		cfg, err := campaign.FromEnv()
		if err != nil {
			b.Fatal(err)
		}
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fix = &fixture{world: res.World, data: res.Dataset, pathObs: res.PathObs, congestion: res.Congestion}
		rows := 0
		for _, seg := range res.PathObs {
			rows += len(seg)
		}
		fmt.Printf("# fixture: %d servers, %d traces, %d hop observations, %d events, %d shards\n",
			len(res.World.Servers), len(res.Dataset.Traces), rows, res.Events, len(res.Shards))
	})
	return fix
}

// printOnce emits an artefact's paper-vs-measured summary a single time.
var printed sync.Map

func printOnce(key, s string) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		fmt.Print(s)
	}
}

// --- one benchmark per table and figure ----------------------------------

func BenchmarkTable1GeographicDistribution(b *testing.B) {
	f := benchFixture(b)
	addrs := f.world.ServerAddrs()
	b.ResetTimer()
	var t1 analysis.Table1
	for i := 0; i < b.N; i++ {
		t1 = analysis.ComputeTable1(addrs, f.world.Geo)
	}
	b.StopTimer()
	printOnce("table1", fmt.Sprintf(
		"# Table 1 — paper: Africa 22, Asia 190, Australia 68, Europe 1664, N.America 522, S.America 32, Unknown 2, total 2500\n%s\n",
		analysis.RenderTable1(t1)))
}

func BenchmarkFigure1GeoLocations(b *testing.B) {
	f := benchFixture(b)
	addrs := f.world.ServerAddrs()
	b.ResetTimer()
	var f1 analysis.Figure1
	for i := 0; i < b.N; i++ {
		f1 = analysis.ComputeFigure1(addrs, f.world.Geo)
	}
	b.StopTimer()
	printOnce("figure1", analysis.RenderFigure1(f1)+"\n")
}

func BenchmarkFigure2aUDPReachability(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f2 analysis.Figure2
	for i := 0; i < b.N; i++ {
		f2 = analysis.ComputeFigure2a(f.data)
	}
	b.StopTimer()
	printOnce("figure2a", fmt.Sprintf(
		"# Figure 2a — paper: average 98.97%%, always above 90%%, avg 2253 not-ECT-reachable\n%s\n",
		analysis.RenderFigure2(f2, fmt.Sprintf(
			"Figure 2a (measured): avg %.2f%%, min %.2f%%, avg not-ECT reachable %.0f",
			f2.Average, f2.Minimum, f2.AvgUDPReachable))))
}

func BenchmarkFigure2bUDPReachabilityConverse(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f2 analysis.Figure2
	for i := 0; i < b.N; i++ {
		f2 = analysis.ComputeFigure2b(f.data)
	}
	b.StopTimer()
	printOnce("figure2b", fmt.Sprintf(
		"# Figure 2b — paper: average 99.45%%\n%s\n",
		analysis.RenderFigure2(f2, fmt.Sprintf("Figure 2b (measured): avg %.2f%%", f2.Average))))
}

func BenchmarkFigure3aDifferentialReachability(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f3 analysis.Figure3
	for i := 0; i < b.N; i++ {
		f3 = analysis.ComputeFigure3a(f.data)
	}
	b.StopTimer()
	printOnce("figure3a", fmt.Sprintf(
		"# Figure 3a — paper: 9–14 servers >50%% differential depending on location, same set everywhere\n%s\n",
		analysis.RenderFigure3(f3, "Figure 3a (measured)")))
}

func BenchmarkFigure3bDifferentialConverse(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f3 analysis.Figure3
	for i := 0; i < b.N; i++ {
		f3 = analysis.ComputeFigure3b(f.data)
	}
	b.StopTimer()
	printOnce("figure3b", fmt.Sprintf(
		"# Figure 3b — paper: at most 3 servers >50%%; one everywhere, two only from EC2\n%s\n",
		analysis.RenderFigure3(f3, "Figure 3b (measured)")))
}

func BenchmarkFigure4TracerouteECN(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f4 analysis.Figure4
	for i := 0; i < b.N; i++ {
		f4 = analysis.ComputeFigure4(f.pathObs, f.world.ASN)
	}
	b.StopTimer()
	printOnce("figure4", fmt.Sprintf(
		"# Figure 4 — paper: 155439 hops, 154421 pass ECT(0) (99.3%%), strips at 1143 hops (125 sometimes), 59.1%% of strip locations at AS boundaries, 1400 ASes, no CE\n%s\n",
		analysis.RenderFigure4(f4)))
}

func BenchmarkFigure5TCPECN(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var f5 analysis.Figure5
	for i := 0; i < b.N; i++ {
		f5 = analysis.ComputeFigure5(f.data)
	}
	b.StopTimer()
	printOnce("figure5", fmt.Sprintf(
		"# Figure 5 — paper: avg 1334 reachable via TCP, 1095 negotiate ECN (82.0%%)\n%s\n",
		analysis.RenderFigure5(f5)))
}

func BenchmarkFigure6ECNTrend(b *testing.B) {
	f := benchFixture(b)
	f5 := analysis.ComputeFigure5(f.data)
	b.ResetTimer()
	var f6 analysis.Figure6
	for i := 0; i < b.N; i++ {
		f6 = analysis.ComputeFigure6(f5)
	}
	b.StopTimer()
	printOnce("figure6", fmt.Sprintf(
		"# Figure 6 — paper: rising series Medina→Langley→Bauer→Kühlewind→Trammell→82.0%% (2015)\n%s\n",
		analysis.RenderFigure6(f6)))
}

func BenchmarkTable2UDPTCPCorrelation(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var t2 analysis.Table2
	for i := 0; i < b.N; i++ {
		t2 = analysis.ComputeTable2(f.data)
	}
	b.StopTimer()
	printOnce("table2", fmt.Sprintf(
		"# Table 2 — paper: Perkins 8/3, McQuistin 160/20, UGla wired 10/2, w'less 43/4, EC2 10–16/2–5; weak correlation\n%s\n",
		analysis.RenderTable2(t2)))
}

// BenchmarkProseStatistics covers the §4.1 narrative numbers: overall
// not-ECT reachability, the batch-1 vs batch-2 churn gap, and the
// per-vantage spread (worst: the congested home; noisiest: wireless).
func BenchmarkProseStatistics(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	var p analysis.Prose
	for i := 0; i < b.N; i++ {
		p = analysis.ComputeProse(f.data)
	}
	b.StopTimer()
	printOnce("prose", fmt.Sprintf(
		"# §4.1 prose — paper: avg 2253 reachable; early batch above late; McQuistin home worst; wireless noisiest\n%s\n",
		analysis.RenderProse(p)))
}

// --- end-to-end and ablation benchmarks -----------------------------------

// BenchmarkCampaignSingleTrace measures a full four-measurement trace
// over the entire pool (the paper's unit of data collection).
func BenchmarkCampaignSingleTrace(b *testing.B) {
	f := benchFixture(b)
	v := f.world.Vantages[0]
	servers := f.world.ServerAddrs()
	sim := f.world.Sim
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.world.ApplyTraceConditions(v, topology.Batch1, sim.RNG())
		done := false
		core.RunTrace(v, servers, topology.Batch1, i, func(dataset.Trace) { done = true })
		sim.Run()
		if !done {
			b.Fatal("trace did not complete")
		}
	}
}

// BenchmarkTracerouteOnePath measures a single ECT(0) traceroute on the
// vantage's own Mux. After the first path the session, its observation
// buffer and its callbacks are recycled, ICMP quotations are read in
// place, and the op allocates nothing: 0 allocs/op.
func BenchmarkTracerouteOnePath(b *testing.B) {
	f := benchFixture(b)
	v := f.world.Vantages[len(f.world.Vantages)-1]
	v.Host.Uplink().SetLossBoth(0)
	target := f.world.Servers[0].Addr
	sim := f.world.Sim
	done := false
	onDone := func(traceroute.Result) { done = true }
	run := func() {
		done = false
		v.Mux.Run(target, traceroute.Config{ProbesPerHop: 1}, onDone)
		sim.Run()
		if !done {
			b.Fatal("trace did not complete")
		}
	}
	run() // first path: builds the session, warms the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkExtensionECNUsability runs the Kühlewind-style TCP usability
// test the paper cites but does not perform: CE-marked segments on
// negotiated connections, checking for the ECE echo. Kühlewind et al.
// measured ≈90% of negotiating hosts usable; the world plants 10%
// broken-ECE servers.
func BenchmarkExtensionECNUsability(b *testing.B) {
	f := benchFixture(b)
	v := f.world.Vantages[0]
	v.Host.Uplink().SetLossBoth(0)
	servers := f.world.ServerAddrs()
	sim := f.world.Sim
	b.ResetTimer()
	var res core.ECNUsabilityResult
	for i := 0; i < b.N; i++ {
		core.RunECNUsability(v, servers, 10, func(r core.ECNUsabilityResult) { res = r })
		sim.Run()
	}
	b.StopTimer()
	printOnce("ext-usability", fmt.Sprintf(
		"# Extension (Kühlewind usability) — literature: ≈90%% of negotiating hosts echo ECE\n"+
			"ECN usability: %d negotiated, %d usable (%.1f%%)\n\n",
		res.Negotiated, res.Usable, res.Rate()))
}

// BenchmarkExtensionArrivalCensus answers the question §4.2 leaves open
// ("whether marked packets reach their destination with the ECT(0) mark
// intact") using the simulator's destination-side ground truth.
func BenchmarkExtensionArrivalCensus(b *testing.B) {
	f := benchFixture(b)
	v := f.world.Vantages[len(f.world.Vantages)-1]
	v.Host.Uplink().SetLossBoth(0)
	sim := f.world.Sim
	b.ResetTimer()
	var census core.ArrivalCensus
	for i := 0; i < b.N; i++ {
		core.RunArrivalCensus(f.world, v, func(c core.ArrivalCensus) { census = c })
		sim.Run()
	}
	b.StopTimer()
	total := census.ArrivedECT0 + census.ArrivedBleached + census.ArrivedCE
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(census.ArrivedECT0) / float64(total)
	}
	printOnce("ext-census", fmt.Sprintf(
		"# Extension (destination arrival census) — paper could not observe this\n"+
			"arrivals: %d intact ECT(0) (%.2f%%), %d bleached, %d CE, %d never arrived\n\n",
		census.ArrivedECT0, pct, census.ArrivedBleached, census.ArrivedCE, census.NoArrival))
}

// BenchmarkExtensionECT1Sweep probes with ECT(1) instead of ECT(0); the
// paper chose ECT(0) to match TCP practice and left ECT(1) untested.
func BenchmarkExtensionECT1Sweep(b *testing.B) {
	f := benchFixture(b)
	v := f.world.Vantages[2]
	v.Host.Uplink().SetLossBoth(0)
	servers := f.world.ServerAddrs()
	sim := f.world.Sim
	b.ResetTimer()
	var res core.ECT1SweepResult
	for i := 0; i < b.N; i++ {
		core.RunECT1Sweep(v, servers, func(r core.ECT1SweepResult) { res = r })
		sim.Run()
	}
	b.StopTimer()
	printOnce("ext-ect1", fmt.Sprintf(
		"# Extension (ECT(1) sweep) — middleboxes here treat both ECT codepoints alike\n"+
			"reachable: ECT(0) %d, ECT(1) %d, per-server disagreements %d\n\n",
		res.ReachableECT0, res.ReachableECT1, res.Disagree))
}

// BenchmarkExtensionMediaECNBenefit quantifies the paper's closing
// question ("whether the use of ECN with UDP offers any benefit has not
// been determined"): the same congested hop as CE-marking versus loss,
// under an adaptive RTP session.
func BenchmarkExtensionMediaECNBenefit(b *testing.B) {
	run := func(useECN bool) (delivered, sent int, ce int) {
		sim := netsim.NewSim(77)
		n := netsim.NewNetwork(sim)
		r1 := n.AddRouter("r1", packetAddr(10, 255, 0, 1), 64500)
		r2 := n.AddRouter("r2", packetAddr(10, 255, 1, 1), 64501)
		n.Connect(r1, r2, 10*timeMillisecond, 0)
		sh, _ := n.AddHost("s", packetAddr(10, 0, 0, 1))
		rh, _ := n.AddHost("r", packetAddr(10, 0, 1, 1))
		n.Attach(sh, r1, 2*timeMillisecond, 0)
		link, _ := n.Attach(rh, r2, 2*timeMillisecond, 0)
		if err := n.ComputeRoutes(); err != nil {
			b.Fatal(err)
		}
		if useECN {
			r2.AddPolicy(&middlebox.CEMarker{Probability: 0.08, RNG: sim.RNG()})
		} else {
			link.SetLoss(r2, 0.08)
		}
		recv, _ := rtp.NewReceiver(rh, 5004, 42)
		snd, _ := rtp.NewSender(sh, rh.Addr(), 5004, rtp.SenderConfig{SSRC: 42, UseECN: useECN})
		var stats rtp.SenderStats
		snd.Start(20*timeSecond, func(s rtp.SenderStats) { stats = s })
		sim.Run()
		rs := recv.Stats()
		return rs.PacketsReceived, stats.PacketsSent, rs.CE
	}
	b.ResetTimer()
	var dECN, sECN, ce, dLoss, sLoss int
	for i := 0; i < b.N; i++ {
		dECN, sECN, ce = run(true)
		dLoss, sLoss, _ = run(false)
	}
	b.StopTimer()
	printOnce("ext-media", fmt.Sprintf(
		"# Extension (media benefit) — paper: benefit undetermined; measured here:\n"+
			"with ECN+AQM: %d/%d delivered (%.1f%% loss), %d CE marks absorbed by rate adaptation\n"+
			"without ECN:  %d/%d delivered (%.1f%% loss) under the same congestion\n\n",
		dECN, sECN, 100*float64(sECN-dECN)/float64(sECN), ce,
		dLoss, sLoss, 100*float64(sLoss-dLoss)/float64(sLoss)))
}

// BenchmarkCEMarkReport reduces a congested-edge campaign to the
// CE-mark report: the verbose-mode CE-ratio estimator at every vantage
// against the bottleneck queues' marking ground truth. The shared
// fixture carries congestion samples only when REPRO_SCENARIO selects a
// congested scenario, so this benchmark runs its own small
// congested-edge campaign (one home vantage, one trace) when it must.
func BenchmarkCEMarkReport(b *testing.B) {
	f := benchFixture(b)
	samples := f.congestion
	if len(samples) == 0 {
		res, err := campaign.Run(campaign.Config{
			Scale:    "small",
			Scenario: campaign.ScenarioCongestedEdge,
			TracePlan: map[string]int{
				"Perkins home": 1,
			},
			Seed: 2015,
		})
		if err != nil {
			b.Fatal(err)
		}
		samples = res.Congestion
	}
	b.ResetTimer()
	var rep analysis.CEMarkReport
	for i := 0; i < b.N; i++ {
		rep = analysis.ComputeCEMarkReport(samples)
	}
	b.StopTimer()
	printOnce("cemark", fmt.Sprintf(
		"# CE-mark report — paper: \"we see no evidence of ... ECN CE\" (no AQM on path);\n"+
			"# congested-edge scenario makes CE happen and checks the verbose-mode estimator:\n%s\n",
		analysis.RenderCEMarkReport(rep)))
}

// small aliases keep the media benchmark readable without extra imports.
func packetAddr(a, b, c, d byte) packet.Addr { return packet.AddrFrom4(a, b, c, d) }

const (
	timeMillisecond = time.Millisecond
	timeSecond      = time.Second
)

// BenchmarkAblationNoMiddleboxes reruns a one-vantage campaign on a
// world with every ECN middlebox removed: ECT(0) reachability converges
// on not-ECT reachability, isolating the middlebox population as the
// cause of the Figure 2a gap (DESIGN.md §6 calibration check).
func BenchmarkAblationNoMiddleboxes(b *testing.B) {
	cfg := topology.SmallConfig()
	cfg.ECTUDPFirewalledServers = 0
	cfg.NotECTFirewalledServers = 0
	cfg.SourceScopedNotECTServers = 0
	cfg.SourceScopedECTServers = 0
	cfg.BleachedBorderStubs = 0
	cfg.BleachedInteriorStubs = 0
	cfg.SometimesBleachedStubs = 0
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(campaign.Config{
			Topology:  &cfg,
			TracePlan: map[string]int{"EC2 Ireland": 2},
			Seed:      99,
		})
		if err != nil {
			b.Fatal(err)
		}
		avg = analysis.ComputeFigure2a(res.Dataset).Average
	}
	b.StopTimer()
	printOnce("ablation-nomb", fmt.Sprintf(
		"# Ablation (no middleboxes): Figure 2a average = %.2f%% (expect ≈100%%)\n", avg))
}

// BenchmarkAblationHeavyBleaching scales the bleacher population up 4×
// to show the Figure 4 preserved fraction responding to placement
// density (the design-choice knob DESIGN.md calls out).
func BenchmarkAblationHeavyBleaching(b *testing.B) {
	cfg := topology.SmallConfig()
	cfg.BleachedBorderStubs *= 4
	cfg.BleachedInteriorStubs *= 4
	b.ResetTimer()
	var preserved float64
	for i := 0; i < b.N; i++ {
		// One trace carries the vantage's sweep: the engine runs the
		// traceroute campaign from the slice that owns trace 0.
		res, err := campaign.Run(campaign.Config{
			Topology:   &cfg,
			TracePlan:  map[string]int{"EC2 Tokyo": 1},
			Stride:     1,
			Traceroute: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		f4 := analysis.ComputeFigure4(res.PathObs, res.World.ASN)
		preserved = 100 * float64(f4.PreservedObservations) / float64(f4.RespondedObservations)
	}
	b.StopTimer()
	printOnce("ablation-bleach", fmt.Sprintf(
		"# Ablation (4x bleachers): preserved fraction = %.2f%% (baseline ≈99%%)\n", preserved))
}
