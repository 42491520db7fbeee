// Package campaign is the sharded, parallel campaign engine: it
// partitions the paper's vantage×server probe plan into shards, runs
// every shard in its own independent discrete-event simulation on a
// bounded pool of worker goroutines, and deterministically merges the
// per-shard results in canonical order.
//
// A shard is a (vantage, slice) pair: each vantage's trace quota is
// split into SlicesPerVantage contiguous blocks, so parallelism is no
// longer capped at the paper's 13 vantage points — a paper-scale
// campaign splits into 13×slices independent simulations. Three
// properties make any slicing equivalent to the sequential run:
//
//   - One frozen world. The topology is compiled once
//     (topology.Compile) from the campaign seed; one pool goroutine
//     adopts the world compiling built, every other instantiates it
//     once, and each resets its world to the just-instantiated state
//     before every shard (Executor, topology.World.Reset): identical
//     ground truth by construction
//     (Figure 3's "same set of servers from every location" depends on
//     this), with the read-only skeleton — routes, geo, ASN, DNS
//     membership — shared rather than rebuilt per shard.
//   - History-free measurement phases. Every phase runs in its own
//     deterministic context: the simulator PRNG is reseeded from the
//     phase's identity (TraceSeed for trace k of a vantage, the sweep
//     and discovery seeds per vantage), the phase starts at a virtual
//     time pinned to its own epoch (traceStartAt), and transient world
//     state is reset at the boundary (World.ResetTransientState). A
//     trace therefore executes identically whether it shares a
//     simulator with its vantage's other traces or runs alone.
//   - Canonical merge. dataset.Merge reassembles the per-shard datasets
//     in (vantage, slice) order; since slices are contiguous trace
//     blocks, the result is the vantage-major trace sequence.
//
// Together these make the merged dataset byte-identical for any worker
// count, any GOMAXPROCS setting, and any SlicesPerVantage — the
// invariant cmd/determinism verifies across the whole grid.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/aqm"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnspool"
	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// Config sizes and parameterises a sharded campaign. The zero value runs
// the full paper plan at paper scale on all available CPUs.
type Config struct {
	// Scale selects the generated world: "paper" (2500 servers, the
	// default) or "small" (120 servers, for tests and CI).
	Scale string
	// Topology overrides the world configuration entirely (ablations);
	// when set, Scale is ignored.
	Topology *topology.Config
	// Scenario names the congestion scenario: "uncongested" (the
	// default — identical to pre-substrate behaviour), "congested-edge"
	// or "congested-transit". It applies on top of Scale or Topology.
	Scenario string

	// TracePlan maps vantage name → trace count. When nil, Traces (if
	// positive) gives every vantage that many traces; otherwise the
	// paper's 210-trace plan is used.
	TracePlan map[string]int
	// Traces is the per-vantage trace count used when TracePlan is nil.
	Traces int
	// Batch2Fraction is the share of each vantage's traces run under
	// batch-2 (July/August) conditions. Default 0.5.
	Batch2Fraction float64

	// Discover enumerates the pool via DNS inside each shard before
	// probing (each shard discovers independently, as a real distributed
	// deployment would; the discovery PRNG stream is keyed by vantage
	// alone, so every slice of a vantage probes the same pool). When
	// false, shards probe the ground-truth list.
	Discover bool
	// DiscoveryRounds overrides the DNS polling rounds (default 50).
	DiscoveryRounds int

	// Stride samples every Nth server for the traceroute campaign
	// (Section 4.2). Zero disables traceroutes entirely.
	Stride int
	// Traceroute is the per-path probe configuration.
	Traceroute traceroute.Config

	// Seed is the campaign seed: the world blueprint compiles from it
	// verbatim, and every measurement phase's PRNG stream derives from
	// it (ShardSeed, TraceSeed).
	Seed int64
	// Workers bounds the number of shards running concurrently.
	// Zero means GOMAXPROCS. The result does not depend on Workers.
	Workers int
	// SlicesPerVantage splits each vantage's trace quota into this many
	// contiguous sub-shards (env REPRO_SLICES, ecnspider -slices),
	// lifting the one-shard-per-vantage parallelism cap. Zero or one
	// keeps a single shard per vantage. The merged result does not
	// depend on the slice count.
	SlicesPerVantage int
	// Scheduler and XTraffic select the differential oracles: the
	// binary-heap scheduler and the one-event-per-phantom-boundary
	// cross-traffic drive. The zero values are the production timing
	// wheel and lazy replay. They are Go-only — no spec field, flag or
	// environment variable reaches them — because the merged result
	// does not depend on either; only the differential tests and
	// cmd/determinism set them, to prove exactly that.
	Scheduler netsim.Scheduler
	XTraffic  netsim.XTrafficMode

	// ShardHook, when non-nil, runs in the worker goroutine after a
	// shard's world is ready (instantiated or reset) and reseeded but
	// before its campaign starts — e.g. to attach a packet capture tap,
	// which lasts for that shard: the reset before the worker's next
	// shard removes it. With SlicesPerVantage > 1 it runs once per
	// (vantage, slice) shard. It must not share mutable state across
	// shards without its own synchronisation.
	ShardHook func(shard int, vantage string, w *topology.World)
	// ShardStart and ShardDone, when non-nil, bracket each shard of a
	// Run for progress reporting: ShardStart fires in the worker
	// goroutine as the (vantage, slice) shard is picked up, ShardDone
	// when it completes successfully, with its execution stats. The
	// benchmark's shard tracer reads them; an Executor driven directly
	// (the control plane's loopback workers, a remote worker) never
	// calls them. Both run concurrently across workers; they must
	// synchronise any shared state themselves and must not block.
	ShardStart func(shard, slice int, vantage string)
	ShardDone  func(ShardStats)

	// Metrics, when non-nil, receives the engine's flight-recorder
	// accounting: shard lifecycle, per-scheduler event counts and AQM
	// queue totals, flushed by the executor — whoever drives it — after
	// each shard's simulator has stopped. It is a runtime attachment — not
	// part of the serializable Spec, never in a cache key — and it is
	// out-of-band: attaching it cannot change a dataset byte (see
	// NewMetrics).
	Metrics *Metrics
}

// FromEnv builds a Config from the REPRO_* environment knobs used by
// the benchmark harness and CI. It is a thin wrapper over the
// serializable campaign spec: SpecFromEnv layers the knobs over
// DefaultSpec (see its doc comment for the vocabulary), and the
// resulting Spec derives the Config — so env, CLI and the HTTP control
// plane all parse campaign configuration through one surface.
func FromEnv() (Config, error) {
	s, err := SpecFromEnv()
	if err != nil {
		return Config{}, err
	}
	return s.Config()
}

// ShardStats records one shard's execution for capacity planning.
type ShardStats struct {
	// Shard is the vantage's fixed index in topology.VantageNames order;
	// it, not the dense execution order, feeds the seed derivation, so a
	// vantage keeps its random stream whatever subset of the plan runs.
	Shard int
	// Slice is the shard's sub-vantage index (0 when unsliced).
	Slice   int
	Vantage string
	Seed    int64
	Traces  int
	// Events is the shard simulator's executed event count.
	Events uint64
	// PhantomEvents counts the executed events that were phantom
	// cross-traffic serialization boundaries; ReplayedBoundaries counts
	// the boundaries the lazy drive replayed arithmetically instead —
	// work the event loop never saw.
	PhantomEvents      uint64
	ReplayedBoundaries uint64
	// WheelCascades and WheelRegisterHits report the timing wheel's
	// internal activity (zero on the heap scheduler): higher-level
	// slots re-filed into finer levels, and pops served straight from
	// the singleton register.
	WheelCascades     uint64
	WheelRegisterHits uint64
	// VirtualTime is the shard's simulated clock at completion.
	VirtualTime time.Duration
	// Elapsed is the shard's wall-clock execution time.
	Elapsed time.Duration
}

// Result is a merged campaign output.
type Result struct {
	// Dataset holds all traces in canonical vantage order with
	// campaign-wide trace indices.
	Dataset *dataset.Dataset
	// PathObs holds the traceroute campaign's hop observations as the
	// sweep shards' own row slabs, in canonical (vantage, slice) order —
	// not copied into one slice — with empty slabs left out, so a
	// non-empty PathObs has rows. traceroute.HashRows and
	// analysis.ComputeFigure4 read it segment by segment.
	PathObs [][]traceroute.PathObservation
	// World is the world that ran the first shard — every shard runs on
	// the same frozen blueprint — for Geo/ASN lookups and follow-on
	// experiments. It is drained, not reset: its executor may have run
	// later shards on it too.
	World *topology.World
	// Servers is the union of probed targets in first-seen shard order.
	Servers []packet.Addr
	// Shards reports per-shard execution stats in canonical
	// (vantage, slice) order.
	Shards []ShardStats
	// Events is the total executed event count across all shards;
	// PhantomEvents and ReplayedBoundaries split the cross-traffic
	// work into evented boundaries and lazily replayed ones.
	Events             uint64
	PhantomEvents      uint64
	ReplayedBoundaries uint64
	// Congestion holds one CE-mark sample per vantage (canonical order)
	// when the scenario places bottlenecks; empty for uncongested runs.
	// Samples aggregate over the vantage's slices, so the report is
	// independent of the slice count. Feed it to
	// analysis.ComputeCEMarkReport.
	Congestion []analysis.CEMarkSample
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed-stream domains. Every measurement phase draws from a stream keyed
// by (campaign seed, phase identity); the domain constant separates the
// phase kinds so e.g. trace 0 and slice 0 can never collide.
const (
	seedDomainShard = 0x5348_4152 // shard sims & per-vantage discovery
	seedDomainTrace = 0x5452_4143 // one stream per (vantage, trace)
	seedDomainSweep = 0x5357_4545 // the per-vantage traceroute sweep
)

func deriveSeed(seed int64, domain, a, b int) int64 {
	z := splitmix64(uint64(seed) ^ splitmix64(uint64(domain)<<40|uint64(a)<<20|uint64(b)))
	return int64(z)
}

// ShardSeed derives the (vantage, slice) shard's measurement-phase seed
// from the campaign seed via nested splitmix64 finalizers. Distinct
// shards of one campaign receive pairwise-distinct seeds, all different
// from the raw campaign seed the world blueprint compiles from.
func ShardSeed(seed int64, vantage, slice int) int64 {
	return deriveSeed(seed, seedDomainShard, vantage, slice)
}

// TraceSeed derives the PRNG stream for trace k of a vantage's quota.
// It is keyed by the vantage's fixed Table 2 index and the trace's
// per-vantage index — never by slice — so the trace's randomness is
// identical however the quota is sliced into shards.
func TraceSeed(seed int64, vantage, k int) int64 {
	return deriveSeed(seed, seedDomainTrace, vantage, k)
}

// sweepSeed keys the per-vantage traceroute sweep stream.
func sweepSeed(seed int64, vantage int) int64 {
	return deriveSeed(seed, seedDomainSweep, vantage, 0)
}

// Virtual-time layout. Every measurement phase is pinned to its own
// epoch: discovery owns [0, shardEpoch), trace k of a vantage starts at
// traceStartAt(k), and the traceroute sweep follows the last planned
// trace. Pinned starts make a trace's virtual timeline (including the
// recorded Trace.Started) independent of which traces preceded it in
// the same simulator — the other half, with per-phase reseeding, of
// slice-count invariance. Virtual time is free: a sparse timeline costs
// the timing wheel a few bitmap scans per jump, not events.
//
// shardEpoch bounds one trace's duration (probes, timeouts and TCP
// teardown included). A worst-case paper-scale trace — every one of
// 2500 servers offline, every probe driven to its full retransmission
// schedule — stays under two virtual days; runShard fails loudly if a
// trace ever overruns its epoch rather than silently skewing the next.
// The epoch is a multiple of the background cross-traffic period, so
// bottleneck burst phases align identically in every epoch.
const shardEpoch = 7 * 24 * time.Hour

// MaxTracesPerVantage bounds a vantage's trace quota — and, since a
// slice beyond the quota is empty, the useful slice count. It keeps
// every epoch representable: the sweep of a full quota starts at
// shardEpoch × (MaxTracesPerVantage+1), inside time.Duration's int64
// nanoseconds (which overflow at 15 250 epochs). Spec.Validate enforces
// it; the paper's largest quota is 25.
const MaxTracesPerVantage = 10_000

// traceStartAt pins trace k (per-vantage index) to its virtual epoch.
func traceStartAt(k int) time.Duration {
	return shardEpoch * time.Duration(k+1)
}

// sweepStartAt pins a vantage's traceroute sweep after its last trace.
func sweepStartAt(planned int) time.Duration {
	return shardEpoch * time.Duration(planned+1)
}

// shardSpec is one unit of parallel work: a contiguous block of one
// vantage's traces.
type shardSpec struct {
	shard   int // fixed vantage index, not dense position
	slice   int
	vantage string
	planned int // the vantage's full trace quota
	lo, hi  int // this slice's trace range [lo, hi)
	sweep   bool
	seed    int64
}

// shardResult is what one shard hands to the merge step.
type shardResult struct {
	world *topology.World
	data  *dataset.Dataset
	obs   []traceroute.PathObservation
	ShardHeader
}

// ShardHeader is what the merge reads of one shard besides its traces
// and sweep rows: its probed server list, its CE-mark sample and its
// execution stats. A coordinator that holds a shard's traces as the
// bytes it received keeps this much decoded, and MergeHeaders turns the
// plan's headers into the run's report.
type ShardHeader struct {
	Servers    []packet.Addr
	Congestion *analysis.CEMarkSample
	Stats      ShardStats
}

func (cfg Config) topologyConfig() (topology.Config, error) {
	var topo topology.Config
	switch {
	case cfg.Topology != nil:
		topo = *cfg.Topology
	default:
		switch cfg.Scale {
		case "small":
			topo = topology.SmallConfig()
		case "", "paper":
			topo = topology.DefaultConfig()
		default:
			return topology.Config{}, fmt.Errorf("campaign: unknown scale %q (want paper or small)", cfg.Scale)
		}
	}
	if err := ApplyScenario(&topo, cfg.Scenario); err != nil {
		return topology.Config{}, err
	}
	return topo, nil
}

func (cfg Config) plan() map[string]int {
	if cfg.TracePlan != nil {
		return cfg.TracePlan
	}
	if cfg.Traces > 0 {
		plan := make(map[string]int, len(topology.VantageNames()))
		for _, name := range topology.VantageNames() {
			plan[name] = cfg.Traces
		}
		return plan
	}
	return core.PaperTracePlan()
}

func (cfg Config) batch2Fraction() float64 {
	if cfg.Batch2Fraction == 0 {
		return 0.5
	}
	return cfg.Batch2Fraction
}

// shardSpecs returns the campaign's work partition in canonical order:
// for each vantage present in the trace plan (in the paper's Table 2
// vantage order), its quota split into SlicesPerVantage contiguous
// blocks. Empty blocks (more slices than traces) are skipped; the slice
// holding trace 0 also owns the vantage's traceroute sweep.
func (cfg Config) shardSpecs() []shardSpec {
	plan := cfg.plan()
	slices := cfg.SlicesPerVantage
	if slices < 1 {
		slices = 1
	}
	var shards []shardSpec
	for i, name := range topology.VantageNames() {
		n := plan[name]
		if n <= 0 {
			continue
		}
		for s := 0; s < slices; s++ {
			lo, hi := s*n/slices, (s+1)*n/slices
			if hi <= lo {
				continue
			}
			shards = append(shards, shardSpec{
				shard:   i,
				slice:   s,
				vantage: name,
				planned: n,
				lo:      lo,
				hi:      hi,
				sweep:   lo == 0,
				seed:    ShardSeed(cfg.Seed, i, s),
			})
		}
	}
	return shards
}

// ShardInfo describes one planned unit of parallel work: a contiguous
// block of one vantage's traces. The control plane exposes the plan
// (and each shard's completion) over the API so remote workers can
// eventually claim shards.
type ShardInfo struct {
	// Shard is the vantage's fixed Table 2 index; Slice its sub-vantage
	// index (0 when unsliced).
	Shard   int    `json:"shard"`
	Slice   int    `json:"slice"`
	Vantage string `json:"vantage"`
	// Traces is the number of traces in this shard's block.
	Traces int `json:"traces"`
	// Sweep marks the slice that also owns the vantage's traceroute
	// sweep (the one holding trace 0).
	Sweep bool `json:"sweep"`
}

// Shards returns the campaign's work partition in canonical
// (vantage, slice) order — the order ShardStats appear in Result.Shards
// and datasets merge in.
func (cfg Config) Shards() []ShardInfo {
	specs := cfg.shardSpecs()
	infos := make([]ShardInfo, len(specs))
	for i, sh := range specs {
		infos[i] = ShardInfo{
			Shard:   sh.shard,
			Slice:   sh.slice,
			Vantage: sh.vantage,
			Traces:  sh.hi - sh.lo,
			Sweep:   sh.sweep,
		}
	}
	return infos
}

// Run executes the sharded campaign and returns the merged result. The
// merged output is byte-identical for any Workers value, GOMAXPROCS
// setting, SlicesPerVantage count or Scheduler choice: shards share
// only the frozen world blueprint, every measurement phase is
// history-free, and the merge runs in canonical order.
func Run(cfg Config) (*Result, error) {
	shards := cfg.shardSpecs()
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: trace plan selects no vantages")
	}
	// Compile the world once; every shard instantiates the frozen
	// blueprint instead of regenerating and re-routing its own copy.
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		return nil, err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	results := make([]shardResult, len(shards))
	errs := make([]error, len(shards))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One world per pool goroutine, reset between shards: the
			// campaign instantiates min(workers, shards) worlds, not one
			// per shard.
			ex := NewExecutor(cfg, bp)
			for i := range jobs {
				sh := shards[i]
				if cfg.ShardStart != nil {
					cfg.ShardStart(sh.shard, sh.slice, sh.vantage)
				}
				results[i], errs[i] = ex.runShard(sh, true)
				if errs[i] != nil {
					continue
				}
				if i > 0 {
					// Only the world that ran the first shard becomes
					// Result.World; a result must not pin any other past
					// the pool's exit.
					results[i].world = nil
				}
				if cfg.ShardDone != nil {
					cfg.ShardDone(results[i].Stats)
				}
			}
		}()
	}
	for i := range shards {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return merge(results), nil
}

// Executor runs shards of one campaign, one after another, on a world
// it owns: the first shard adopts the blueprint's spare — the world
// compiling built — unless another executor took it first, in which
// case it instantiates one, and every later shard resets that world
// (topology.World.Reset) instead of building another. A reset world is
// in exactly the state Instantiate produces, so a shard's result does
// not depend on which shards its executor ran before — the one-shot
// ExecuteShard, whose executor runs nothing else, is the oracle the
// differential tests hold every executor sequence to. Run gives each
// pool goroutine an executor; a remote worker keeps one per job, the
// control plane a few per local job. Each shard's accounting is flushed
// into cfg.Metrics here, so every driver feeds the same series.
//
// An Executor is not safe for concurrent use: it is one simulation.
type Executor struct {
	cfg    Config
	bp     *topology.Blueprint
	shards []shardSpec
	// world is nil before the first shard and after a failed one: a
	// world whose shard errored stopped somewhere Reset makes no promise
	// about, so it is dropped and the next shard instantiates afresh.
	world *topology.World
}

// NewExecutor returns an executor for cfg's plan over its compiled
// blueprint (cfg.CompileBlueprint).
func NewExecutor(cfg Config, bp *topology.Blueprint) *Executor {
	return &Executor{cfg: cfg, bp: bp, shards: cfg.shardSpecs()}
}

// Execute runs the (vantage-index, slice) shard of the plan and returns
// its wire-form result, exactly as ExecuteShard does — on the
// executor's world rather than a fresh one. The wire carries no sweep
// rows, so a sweep shard's sweep runs — its events and PRNG draws are
// part of the shard — but keeps none.
func (e *Executor) Execute(shard, slice int) (*ShardResultWire, error) {
	for _, sh := range e.shards {
		if sh.shard != shard || sh.slice != slice {
			continue
		}
		r, err := e.runShard(sh, false)
		if err != nil {
			return nil, err
		}
		return wireFromShardResult(r), nil
	}
	return nil, fmt.Errorf("campaign: plan has no shard (%d, %d)", shard, slice)
}

// acquire returns the world the next shard runs on, in post-Instantiate
// state: the executor's own world reset, or a new instantiation. The
// blueprint's spare, if this executor is the one to take it, becomes
// its own world and is reset like one — and counted as a reset
// (repro_sim_worlds_total{op="reset"}): nothing was instantiated.
func (e *Executor) acquire() (*topology.World, error) {
	if e.world == nil {
		e.world = e.bp.TakeSpare(e.cfg.Seed, e.cfg.Scheduler, e.cfg.XTraffic)
	}
	if e.world != nil {
		e.world.Reset()
		e.cfg.Metrics.worldAcquired(true)
		return e.world, nil
	}
	sim := netsim.NewSimSched(e.cfg.Seed, e.cfg.Scheduler)
	sim.SetXTrafficMode(e.cfg.XTraffic)
	w, err := e.bp.Instantiate(sim)
	if err != nil {
		return nil, err
	}
	e.cfg.Metrics.worldAcquired(false)
	e.world = w
	return w, nil
}

// runShard executes one shard in a private simulation: acquire the
// world, then run the shard's trace block — every trace in its own
// reseeded, transient-reset, epoch-pinned context — and, on the
// vantage's first slice, the traceroute sweep, whose rows the result
// holds only if keepRows. Any failure drops the world.
func (e *Executor) runShard(sh shardSpec, keepRows bool) (shardResult, error) {
	start := time.Now()
	e.cfg.Metrics.shardStarted()
	fail := func(err error) (shardResult, error) {
		e.world = nil
		e.cfg.Metrics.shardFailed()
		return shardResult{}, fmt.Errorf("campaign: shard %d/%d (%s): %w", sh.shard, sh.slice, sh.vantage, err)
	}
	cfg := e.cfg
	w, err := e.acquire()
	if err != nil {
		return fail(err)
	}
	sim := w.Sim
	sim.Reseed(sh.seed)
	if cfg.ShardHook != nil {
		cfg.ShardHook(sh.shard, sh.vantage, w)
	}
	v, ok := w.VantageByName(sh.vantage)
	if !ok {
		return fail(fmt.Errorf("vantage missing from world"))
	}

	// On congested scenarios, observe arriving ECN codepoints at the
	// shard's vantage — the receiver-side input of the verbose-mode
	// CE-ratio estimator. The tap only counts; it cannot perturb the
	// measurement or its randomness.
	var inECT, inCE, inNotECT uint64
	if len(w.Bottlenecks) > 0 {
		v.Host.AddTap(func(dir netsim.TapDirection, _ time.Duration, wire []byte) {
			if dir != netsim.TapIn {
				return
			}
			switch cp, err := packet.WireECN(wire); {
			case err != nil:
			case cp == ecn.CE:
				inCE++
			case cp.IsECT():
				inECT++
			default:
				inNotECT++
			}
		})
	}

	// Target list: ground truth, or per-shard DNS discovery in the
	// pre-trace epoch. The discovery stream is keyed by vantage alone
	// (slice 0's shard seed), so every slice enumerates the same pool.
	servers := w.ServerAddrs()
	if cfg.Discover {
		sim.Reseed(ShardSeed(cfg.Seed, sh.shard, 0))
		rounds := cfg.DiscoveryRounds
		if rounds == 0 {
			rounds = 50
		}
		var got []packet.Addr
		found := false
		dnspool.Discover(v.Host, dnspool.DiscoverConfig{
			Resolver:      w.DNSAddr,
			Zones:         w.CountryZones,
			Rounds:        rounds,
			QueryGap:      100 * time.Millisecond,
			RoundInterval: time.Minute,
		}, func(r dnspool.DiscoverResult) {
			got = r.Servers
			found = true
		})
		sim.Run()
		if !found {
			return fail(fmt.Errorf("discovery did not complete"))
		}
		servers = got
	}

	// Discovery runs in every slice (each needs the server list), but a
	// vantage's congestion sample must count its traffic exactly once —
	// as the unsliced run does — for the CE-mark report to stay
	// slice-invariant. Non-sweep slices therefore snapshot the tap and
	// queue counters here and report only the delta.
	var baseInECT, baseInCE, baseInNotECT uint64
	var baseQueue []aqm.Stats
	if !sh.sweep && len(w.Bottlenecks) > 0 {
		baseInECT, baseInCE, baseInNotECT = inECT, inCE, inNotECT
		baseQueue = make([]aqm.Stats, len(w.Bottlenecks))
		for i, bn := range w.Bottlenecks {
			baseQueue[i] = bn.Queue.Stats()
		}
	}

	d := &dataset.Dataset{}
	for k := sh.lo; k < sh.hi; k++ {
		at := traceStartAt(k)
		if sim.Now() >= at {
			return fail(fmt.Errorf("trace %d overran its epoch: clock %v past %v", k-1, sim.Now(), at))
		}
		k := k
		completed := false
		sim.At(at, func() {
			sim.Reseed(TraceSeed(cfg.Seed, sh.shard, k))
			w.ResetTransientState()
			batch := core.BatchFor(k, sh.planned, cfg.batch2Fraction())
			w.ApplyTraceConditions(v, batch, sim.RNG())
			core.RunTrace(v, servers, batch, k, func(t dataset.Trace) {
				d.Traces = append(d.Traces, t)
				completed = true
			})
		})
		sim.Run()
		if !completed {
			return fail(fmt.Errorf("trace %d did not complete", k))
		}
	}

	var obs []traceroute.PathObservation
	if cfg.Stride > 0 && sh.sweep {
		at := sweepStartAt(sh.planned)
		if sim.Now() >= at {
			return fail(fmt.Errorf("trace %d overran into the sweep epoch at %v", sh.hi-1, at))
		}
		swept := false
		sim.At(at, func() {
			sim.Reseed(sweepSeed(cfg.Seed, sh.shard))
			w.ResetTransientState()
			// Kept rows arrive as one exactly-sized slab this shard owns
			// and merge hands on as it is; the sweep's working memory
			// stays behind on the world.
			tcfg := core.TracerouteCampaignConfig{
				Vantages:     []string{sh.vantage},
				TargetStride: cfg.Stride,
				Config:       cfg.Traceroute,
			}
			if keepRows {
				core.RunTracerouteCampaign(w, tcfg, func(o []core.PathObservation) { obs, swept = o, true })
			} else {
				core.RunTracerouteCampaignNoRows(w, tcfg, func() { swept = true })
			}
		})
		sim.Run()
		if !swept {
			// Sessions are still registered on the vantage's mux: like
			// any failed world, this one is dropped, not reset.
			return fail(fmt.Errorf("traceroute sweep did not complete"))
		}
	}

	var cong *analysis.CEMarkSample
	if len(w.Bottlenecks) > 0 {
		s := analysis.CEMarkSample{
			Vantage:  sh.vantage,
			InECT:    inECT - baseInECT,
			InCE:     inCE - baseInCE,
			InNotECT: inNotECT - baseInNotECT,
		}
		for i, bn := range w.Bottlenecks {
			// Edge bottlenecks belong to one vantage; only this shard's
			// carries foreground traffic. Transit bottlenecks (empty
			// Vantage) all sit on this shard's paths.
			if bn.Vantage != "" && bn.Vantage != sh.vantage {
				continue
			}
			st := bn.Queue.Stats()
			var base aqm.Stats
			if baseQueue != nil {
				base = baseQueue[i]
			}
			s.Utilization = bn.Utilization
			s.QueueECT += st.WireECT - base.WireECT
			s.QueueCEMarked += st.WireCEMarked - base.WireCEMarked
			s.QueueNotECTDropped += st.WireNotECTDropped - base.WireNotECTDropped
			s.QueueTailDropped += st.TailDropped - base.TailDropped
			s.QueueOffered += st.Offered() - base.Offered()
			s.QueueSumBacklog += st.SumBacklog - base.SumBacklog
		}
		cong = &s
	}

	cascades, registerHits := sim.WheelStats()
	stats := ShardStats{
		Shard:              sh.shard,
		Slice:              sh.slice,
		Vantage:            sh.vantage,
		Seed:               sh.seed,
		Traces:             len(d.Traces),
		Events:             sim.Executed(),
		PhantomEvents:      sim.PhantomEvents(),
		ReplayedBoundaries: sim.ReplayedBoundaries(),
		WheelCascades:      cascades,
		WheelRegisterHits:  registerHits,
		VirtualTime:        sim.Now(),
		Elapsed:            time.Since(start),
	}
	// Flush here, before the executor's next shard resets the world:
	// shardFinished reads its queue totals.
	cfg.Metrics.shardFinished(stats, w, cfg.Scheduler.Name())
	return shardResult{
		world:       w,
		data:        d,
		obs:         obs,
		ShardHeader: ShardHeader{Servers: servers, Congestion: cong, Stats: stats},
	}, nil
}

// merge combines per-shard results in canonical (vantage, slice) order:
// the headers through MergeHeaders, the datasets through dataset.Merge.
// The sweep rows are not copied: PathObs lists the shards' non-empty
// slabs themselves.
func merge(results []shardResult) *Result {
	headers := make([]ShardHeader, len(results))
	parts := make([]*dataset.Dataset, len(results))
	var pathObs [][]traceroute.PathObservation
	for i := range results {
		headers[i] = results[i].ShardHeader
		parts[i] = results[i].data
		if len(results[i].obs) > 0 {
			pathObs = append(pathObs, results[i].obs)
		}
	}
	res := MergeHeaders(headers)
	res.PathObs = pathObs
	res.Dataset = dataset.Merge(parts...)
	res.World = results[0].world
	return res
}

// MergeHeaders folds shard headers, given in canonical (vantage, slice)
// order, into a Result's run-level fields: the union of the probed
// servers in first-seen order, the per-shard stats and the event
// counters they sum to, and one congestion sample per vantage — its
// slices' counters summed, so the CE-mark report, like the dataset, is
// independent of how the campaign was sliced. Dataset, PathObs and
// World are left for the caller: merge fills them for Run and MergeWire
// (whose wires carry no sweep rows, so PathObs stays nil there). It is
// the one merge of everything but the traces: Run, MergeWire and the
// control plane's coordinator, which never decodes an uploaded trace,
// all file their run reports from it.
func MergeHeaders(headers []ShardHeader) *Result {
	res := &Result{Shards: make([]ShardStats, 0, len(headers))}
	seen := make(map[packet.Addr]bool)
	for i := range headers {
		h := &headers[i]
		res.Shards = append(res.Shards, h.Stats)
		res.Events += h.Stats.Events
		res.PhantomEvents += h.Stats.PhantomEvents
		res.ReplayedBoundaries += h.Stats.ReplayedBoundaries
		if c := h.Congestion; c != nil {
			if n := len(res.Congestion); n > 0 && res.Congestion[n-1].Vantage == c.Vantage {
				agg := &res.Congestion[n-1]
				agg.InECT += c.InECT
				agg.InCE += c.InCE
				agg.InNotECT += c.InNotECT
				agg.QueueECT += c.QueueECT
				agg.QueueCEMarked += c.QueueCEMarked
				agg.QueueNotECTDropped += c.QueueNotECTDropped
				agg.QueueTailDropped += c.QueueTailDropped
				agg.QueueOffered += c.QueueOffered
				agg.QueueSumBacklog += c.QueueSumBacklog
			} else {
				res.Congestion = append(res.Congestion, *c)
			}
		}
		for _, a := range h.Servers {
			if !seen[a] {
				seen[a] = true
				res.Servers = append(res.Servers, a)
			}
		}
	}
	return res
}
