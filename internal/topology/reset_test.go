package topology_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/ntp"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// TestResetMatchesInstantiate holds World.Reset to its definition: a
// world that ran a full shard — traces, the traceroute sweep, DNS
// discovery, a capture tap on the vantage — and was then Reset is in
// the state a fresh Instantiate produces, field for field, under the
// reflective digest of statehash_test.go. Every scenario, both
// schedulers and both cross-traffic drives, with and without discovery.
//
// A drained shard leaves much of the world at its baseline on its own
// (every probe unbinds its port, the sweep ends with all hosts online,
// queues run empty), so the same world is then stopped in mid-trace —
// hosts churned offline, access loss drawn, probes bound to ports,
// connections half open, a traceroute session registered on the
// vantage's mux, packets queued at a busy bottleneck — and
// Reset again: that is the state that proves each line of Reset, and
// the leftovers Reset promises to cope with.
//
// The digest is also required to tell the used world from a fresh one
// before each Reset: a walker that saw nothing would pass everything.
//
// Each cell runs twice: on an instantiated world, and on the world
// compiling built, which the blueprint keeps as a spare and the shard's
// executor adopts. The spare must hash unlike a fresh world before that
// first Reset — compiling drew the build decisions from its PRNG — and
// like one after it.
func TestResetMatchesInstantiate(t *testing.T) {
	for _, scenario := range campaign.Scenarios() {
		for _, sched := range []netsim.Scheduler{netsim.SchedWheel, netsim.SchedHeap} {
			for _, xt := range []netsim.XTrafficMode{netsim.XTrafficLazy, netsim.XTrafficEvents} {
				for _, discover := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/discover=%v", scenario, sched.Name(), xt.Name(), discover)
					t.Run(name, func(t *testing.T) {
						for _, spare := range []bool{false, true} {
							t.Run(fmt.Sprintf("spare=%v", spare), func(t *testing.T) {
								cfg := campaign.Config{
									Scale:           "small",
									Scenario:        scenario,
									Traces:          2,
									Stride:          12,
									Traceroute:      traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
									Seed:            2015,
									Discover:        discover,
									DiscoveryRounds: 4,
									Scheduler:       sched,
									XTraffic:        xt,
								}
								var w *topology.World
								rec := capture.NewRecorder(0)
								cfg.ShardHook = func(_ int, vantage string, world *topology.World) {
									w = world
									v, _ := world.VantageByName(vantage)
									v.Host.AddTap(rec.Tap)
								}
								bp, err := cfg.CompileBlueprint()
								if err != nil {
									t.Fatal(err)
								}
								sim := netsim.NewSimSched(cfg.Seed, sched)
								sim.SetXTrafficMode(xt)
								fresh, err := bp.Instantiate(sim)
								if err != nil {
									t.Fatal(err)
								}
								want, wantDump := topology.StateHash(fresh)

								generated := topology.Spare(bp)
								if generated == nil {
									t.Fatal("the blueprint kept no spare")
								}
								if !spare {
									bp.TakeSpare(cfg.Seed, sched, xt) // the shard instantiates
								} else if got, _ := topology.StateHash(generated); got == want {
									t.Fatal("digest is blind: the un-reset compile world hashes like a fresh one")
								}
								// Shard (3, 0): the lossy wireless vantage, whose one
								// slice owns both traces and the sweep.
								if _, err := campaign.ExecuteShard(cfg, bp, 3, 0); err != nil {
									t.Fatal(err)
								}
								if rec.Len() == 0 {
									t.Fatal("capture tap saw no packets")
								}
								if (w == generated) != spare {
									t.Fatalf("the shard ran on the compile world: %v, want %v", w == generated, spare)
								}

								requireFresh := func(phase string) {
									t.Helper()
									if used, _ := topology.StateHash(w); used == want {
										t.Fatalf("%s: digest is blind: the used world hashes like a fresh one", phase)
									}
									w.Reset()
									got, gotDump := topology.StateHash(w)
									if got == want {
										return
									}
									for i := 0; i < len(gotDump) && i < len(wantDump); i++ {
										if gotDump[i] != wantDump[i] {
											t.Fatalf("%s: Reset leaks history — first difference (of %d/%d lines):\n  reset: %s\n  fresh: %s",
												phase, len(gotDump), len(wantDump), gotDump[i], wantDump[i])
										}
									}
									t.Fatalf("%s: Reset leaks history: dumps have %d vs %d lines", phase, len(gotDump), len(wantDump))
								}
								requireFresh("after a drained shard")

								v := w.Vantages[3]
								v.Host.AddTap(rec.Tap)
								w.ApplyTraceConditions(v, topology.Batch1, w.Sim.RNG())
								core.RunTrace(v, w.ServerAddrs(), topology.Batch1, 0, func(dataset.Trace) {
									t.Error("the interrupted trace completed")
								})
								w.Sim.RunUntil(30 * time.Second)
								if w.Sim.Pending() == 0 {
									t.Fatal("nothing in flight at the interruption")
								}
								// Whatever the trace had in flight at that instant, add
								// the leftovers timing cannot guarantee: a socket nobody
								// unbinds, a flipped port-unreachable switch, and two
								// bursts into the vantage's uplink — the first keeps a
								// bottleneck's cross traffic alive (so the lazy drive
								// has a phantom on the wire 20 ms on), the second is
								// still queued behind it when the world is reset.
								v.Host.RespondPortUnreachable = true
								if _, err := v.Host.BindUDP(0, func(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte) {}); err != nil {
									t.Fatal(err)
								}
								burst := func() {
									for i := 0; i < 8; i++ {
										if err := v.Host.SendUDP(w.Servers[0].Addr, 40000, ntp.Port, 64, ecn.ECT0, []byte("left over")); err != nil {
											t.Fatal(err)
										}
									}
								}
								burst()
								w.Sim.RunUntil(w.Sim.Now() + 20*time.Millisecond)
								burst()
								// And a traceroute in flight: a session registered on
								// the vantage's mux, its probe port bound, its timeout
								// pending.
								v.Mux.Run(w.Servers[1].Addr, traceroute.Config{}, func(traceroute.Result) {
									t.Error("the interrupted traceroute completed")
								})
								requireFresh("stopped in mid-trace")
							})
						}
					})
				}
			}
		}
	}
}
