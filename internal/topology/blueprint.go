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
	cfg  Config
	seed int64
	// newSim makes the simulators the blueprint's worlds run on:
	// netsim.NewSim, or a reference one (WithSims).
	newSim func(seed int64) *netsim.Sim
	trace  decisionTrace
	shared sharedParts
	// spare is the generation world until TakeSpare hands it out.
	spare atomic.Pointer[World]
}

// decisionTrace records the stochastic choices of one generation run.
type decisionTrace struct {
	perm  []int        // the firewall placement permutation's prefix placeFirewalls takes
	roles []serverRole // each server's role draws' outcome
}

// serverRole is the outcome of one server's role draws (drawRole).
type serverRole uint8

const (
	roleWeb serverRole = 1 << iota
	roleWebECN
	roleBrokenECE
)

// sharedParts is the read-only world skeleton every instance references.
type sharedParts struct {
	geo    *geo.DB
	asn    *asn.Table
	dir    *dnspool.Directory // membership template; cloned per instance
	zones  []string
	routes *netsim.RouteTable
}

// Compile generates the (seed, cfg) world once, recording its decisions
// and freezing its shareable parts. Its worlds run on netsim.NewSim
// simulators. The generation world is built on one and kept as the
// blueprint's spare, which differs from an instantiated world only in
// what Reset restores (the PRNG has drawn the decisions):
//
//   - the generation world's DNS directory stays with it, bound to its
//     DNS host, and the blueprint's membership template is a clone of
//     it — so the spare owns its rotation cursors, as every Instantiate's
//     clone does, and the template is never served from;
//   - its network needs no re-import of the frozen RouteTable: the
//     table ExportRoutes freezes is the network's own table and address
//     index, marked shared, so it forwards exactly as an instantiated
//     one does.
func Compile(cfg Config, seed int64) (*Blueprint, error) {
	return compile(cfg, seed, netsim.NewSim)
}

func compile(cfg Config, seed int64, newSim func(seed int64) *netsim.Sim) (*Blueprint, error) {
	bp := &Blueprint{cfg: cfg, seed: seed, newSim: newSim}
	b := newBuilder(newSim(seed), cfg)
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

// WithSims compiles bp's world again, for worlds that run on simulators
// newSim makes — a reference scheduler or cross-traffic drive the
// production simulator is tested against — spare included. World
// generation steps no simulator event, so the copy draws the same
// decisions and builds the same world. Tests only: production worlds
// run on netsim.NewSim.
func (bp *Blueprint) WithSims(newSim func(seed int64) *netsim.Sim) (*Blueprint, error) {
	return compile(bp.cfg, bp.seed, newSim)
}

// NewSim returns a simulator of the kind the blueprint's worlds run on,
// its randomness derived from seed, for Instantiate.
func (bp *Blueprint) NewSim(seed int64) *netsim.Sim { return bp.newSim(seed) }

// TakeSpare hands out the generation world, at most once over the
// blueprint's life: nil once it has been taken, or when the caller's
// seed differs from the one it was built on. The world has run its
// generation, so Reset it before use; it is then in exactly the state
// Instantiate produces on bp.NewSim(seed). The blueprint keeps no
// reference to a world it has handed out.
func (bp *Blueprint) TakeSpare(seed int64) *World {
	if seed != bp.seed {
		return nil
	}
	return bp.spare.Swap(nil)
}

// Instantiate builds a world on sim from the frozen blueprint: the same
// construction sequence as Compile's generation run, but with recorded
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
