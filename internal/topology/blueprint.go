package topology

import (
	"fmt"
	"sync/atomic"

	"repro/internal/asn"
	"repro/internal/dnspool"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// Blueprint is a compiled, frozen world: the (seed, Config) pair's
// generation run captured once, so that any number of simulations can
// instantiate structurally identical worlds without re-drawing the
// stochastic build decisions or re-computing routes.
//
// The sharded campaign engine is the customer: before blueprints, every
// shard rebuilt the full world — regenerating the same middlebox
// placement from the same seed and re-running the all-pairs BFS whose
// output is identical across shards. A Blueprint splits the world into
// its immutable skeleton, built once and shared read-only:
//
//   - the recorded stochastic decisions (firewall placement permutation,
//     server role rolls), replayed instead of re-drawn;
//   - the forwarding tables (netsim.RouteTable — by far the largest
//     per-shard allocation, O(routers²));
//   - the geo and ASN databases and the pool DNS zone membership;
//
// and the cheap per-simulation overlay that Instantiate still builds
// fresh for every shard: hosts, routers, links, queues, protocol stacks
// — everything owning mutable state (clocks, counters, queue contents,
// PRNG draws) that concurrent shards must not share.
//
// The generation run builds one complete world of its own. The
// blueprint keeps it as a one-shot spare (TakeSpare), so the first
// world a campaign needs is the one compiling already paid for.
//
// A Blueprint is immutable after Compile, apart from the spare's
// one-shot hand-out, and safe for concurrent Instantiate and TakeSpare
// calls.
type Blueprint struct {
	cfg    Config
	seed   int64
	sched  netsim.Scheduler
	xt     netsim.XTrafficMode
	trace  decisionTrace
	shared sharedParts
	// spare is the generation world until TakeSpare hands it out.
	spare atomic.Pointer[World]
}

// decisionTrace records the stochastic choices of one generation run.
type decisionTrace struct {
	perm  []int     // firewall placement permutation
	rolls []float64 // server role draws, in consumption order
}

// sharedParts is the read-only world skeleton every instance references.
type sharedParts struct {
	geo    *geo.DB
	asn    *asn.Table
	dir    *dnspool.Directory // membership template; cloned per instance
	zones  []string
	routes *netsim.RouteTable
}

// Compile generates the (seed, cfg) world once, recording its decisions
// and freezing its shareable parts, on a simulator with the default
// scheduler and cross-traffic drive (see CompileFor).
func Compile(cfg Config, seed int64) (*Blueprint, error) {
	return CompileFor(cfg, seed, netsim.SchedWheel, netsim.XTrafficLazy)
}

// CompileFor is Compile for worlds that run on the given scheduler and
// cross-traffic drive. The generation world is built on such a
// simulator and kept as the blueprint's spare, which differs from an
// instantiated world only in what Reset restores (the PRNG has drawn
// the decisions):
//
//   - the generation world's DNS directory stays with it, bound to its
//     DNS host, and the blueprint's membership template is a clone of
//     it — so the spare owns its rotation cursors, as every Instantiate's
//     clone does, and the template is never served from;
//   - its network needs no re-import of the frozen RouteTable: the
//     table ExportRoutes freezes is the network's own rows and address
//     index, marked shared, so it forwards exactly as an instantiated
//     one does.
func CompileFor(cfg Config, seed int64, sched netsim.Scheduler, xt netsim.XTrafficMode) (*Blueprint, error) {
	bp := &Blueprint{cfg: cfg, seed: seed, sched: sched, xt: xt}
	sim := netsim.NewSimSched(seed, sched)
	sim.SetXTrafficMode(xt)
	b := newBuilder(sim, cfg)
	b.rec = &bp.trace
	w, err := b.run()
	if err != nil {
		return nil, fmt.Errorf("topology: compile: %w", err)
	}
	routes, err := w.Net.ExportRoutes()
	if err != nil {
		return nil, fmt.Errorf("topology: compile: %w", err)
	}
	bp.shared = sharedParts{
		geo:    w.Geo,
		asn:    w.ASN,
		dir:    w.Directory.Clone(),
		zones:  w.CountryZones,
		routes: routes,
	}
	bp.spare.Store(w)
	return bp, nil
}

// TakeSpare hands out the generation world, at most once over the
// blueprint's life: nil once it has been taken, or when the caller's
// simulator would differ from the one it was built on (seed, scheduler,
// cross-traffic drive). The world has run its generation, so Reset it
// before use; it is then in exactly the state Instantiate produces on a
// simulator made from the same three. The blueprint keeps no reference
// to a world it has handed out.
func (bp *Blueprint) TakeSpare(seed int64, sched netsim.Scheduler, xt netsim.XTrafficMode) *World {
	if seed != bp.seed || sched != bp.sched || xt != bp.xt {
		return nil
	}
	return bp.spare.Swap(nil)
}

// Config returns the compiled world configuration.
func (bp *Blueprint) Config() Config { return bp.cfg }

// Seed returns the generation seed the blueprint was compiled from.
func (bp *Blueprint) Seed() int64 { return bp.seed }

// Instantiate builds a world on sim from the frozen blueprint: the same
// construction sequence as Build with the same seed, but with recorded
// decisions replayed (consuming none of sim's PRNG state) and the
// skeleton shared. The returned world is fully private to sim except for
// the read-only shared parts.
func (bp *Blueprint) Instantiate(sim *netsim.Sim) (*World, error) {
	b := newBuilder(sim, bp.cfg)
	b.rep = &bp.trace
	b.shared = &bp.shared
	w, err := b.run()
	if err != nil {
		return nil, fmt.Errorf("topology: instantiate: %w", err)
	}
	return w, nil
}
