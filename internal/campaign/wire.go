package campaign

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/packet"
	"repro/internal/topology"
)

// This file is the distributed execution seam: the versioned wire form
// of one shard's result, the entry point a remote worker uses to
// execute exactly one leased (vantage, slice) shard, and the merge the
// coordinator runs over uploaded results.
//
// The contract is the engine's determinism invariant stretched across
// machines: ExecuteShard runs the identical history-free shard context
// runShard uses in-process (same frozen blueprint, same derived seeds,
// same epoch-pinned virtual timeline), every field of ShardResultWire
// survives a JSON round trip exactly (integers and durations decode
// through strconv, never a float; float64s re-marshal shortest-form),
// and MergeWire reassembles results in canonical (vantage, slice)
// order through the same merge the in-process path uses — so the
// merged dataset is byte-identical to campaign.Run whatever machine
// ran which shard. The dataset hashes TestDeterminismGrid pins are the
// cross-machine acceptance check.

// ShardWireVersion is the current shard-result wire schema. A worker
// built against a different schema is rejected at upload rather than
// silently merged.
const ShardWireVersion = 1

// ShardResultWire is one executed shard's result in wire form: the
// shard's dataset slice, its congestion sample (congested scenarios),
// its probed server list, and its execution stats. It carries the spec
// hash it was computed for so a stale worker — one holding a lease
// from a different job generation or an entirely different spec —
// cannot poison a job's merge.
type ShardResultWire struct {
	// Version is the wire schema version (ShardWireVersion).
	Version int `json:"v"`
	// SpecHash is the cache key (campaign.Spec.CacheKey) of the spec
	// the worker actually executed; the coordinator rejects uploads
	// whose hash differs from the job's.
	SpecHash string `json:"spec_hash"`

	// Shard and Slice identify the (vantage, slice) unit in the
	// canonical plan; Vantage is carried for self-description.
	Shard   int    `json:"shard"`
	Slice   int    `json:"slice"`
	Vantage string `json:"vantage"`

	// Traces is the shard's dataset slice, in per-shard order (the
	// campaign-wide Index is assigned by the canonical merge).
	Traces []dataset.Trace `json:"traces"`
	// Servers is the shard's probed target list (ground truth or
	// per-shard DNS discovery); the merge unions it in canonical shard
	// order for the run report.
	Servers []packet.Addr `json:"servers"`
	// Congestion is the shard's CE-mark sample on congested scenarios.
	Congestion *analysis.CEMarkSample `json:"congestion,omitempty"`
	// Stats are the shard's execution counters.
	Stats ShardStats `json:"stats"`
}

// EncodeJSON streams w through e as the JSON object json.Marshal(w)
// would build, byte for byte (TestWireEncodeMatchesMarshal), without
// building it: the traces — all but a few hundred bytes of a result —
// go through the dataset package's trace encoder a chunk at a time, the
// server list as dotted quads, and only the two small fixed-size
// structs through encoding/json. Failures stick in e; the caller
// flushes it and learns of them there.
func (w *ShardResultWire) EncodeJSON(e *dataset.Encoder) {
	if w == nil {
		e.Raw("null")
		return
	}
	e.Raw(`{"v":`)
	e.Int(int64(w.Version))
	e.Raw(`,"spec_hash":`)
	e.String(w.SpecHash)
	e.Raw(`,"shard":`)
	e.Int(int64(w.Shard))
	e.Raw(`,"slice":`)
	e.Int(int64(w.Slice))
	e.Raw(`,"vantage":`)
	e.String(w.Vantage)
	e.Raw(`,"traces":`)
	if w.Traces == nil {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i := range w.Traces {
			if i > 0 {
				e.Raw(",")
			}
			e.Trace(&w.Traces[i])
		}
		e.Raw("]")
	}
	e.Raw(`,"servers":`)
	if w.Servers == nil {
		e.Raw("null")
	} else {
		e.Raw("[")
		for i, addr := range w.Servers {
			if i > 0 {
				e.Raw(",")
			}
			e.Addr(addr)
		}
		e.Raw("]")
	}
	if w.Congestion != nil {
		e.Raw(`,"congestion":`)
		e.Marshal(w.Congestion)
	}
	e.Raw(`,"stats":`)
	e.Marshal(&w.Stats)
	e.Raw("}")
}

// wireFromShardResult converts an executed shard to wire form. The
// traceroute sweep's path observations are not carried: they are not
// part of the stored artifact set (dataset + run meta) the control
// plane files, so the wire stays lean — and Execute, which builds every
// wire, keeps none to drop.
func wireFromShardResult(r shardResult) *ShardResultWire {
	return &ShardResultWire{
		Version:    ShardWireVersion,
		Shard:      r.Stats.Shard,
		Slice:      r.Stats.Slice,
		Vantage:    r.Stats.Vantage,
		Traces:     r.data.Traces,
		Servers:    r.Servers,
		Congestion: r.Congestion,
		Stats:      r.Stats,
	}
}

// shardResultFromWire converts an uploaded wire result back to the
// merge's internal form. The world pointer is nil: a coordinator
// merging remote results never instantiated the shard's world, and
// nothing in the stored artifacts needs it.
func (w *ShardResultWire) shardResult() shardResult {
	return shardResult{data: &dataset.Dataset{Traces: w.Traces}, ShardHeader: w.Header()}
}

// Header is the part of w the run report merges from (MergeHeaders).
func (w *ShardResultWire) Header() ShardHeader {
	return ShardHeader{Servers: w.Servers, Congestion: w.Congestion, Stats: w.Stats}
}

// CompileBlueprint compiles the campaign's frozen world blueprint —
// the same compile-once artifact Run shares across its shard pool. A
// worker compiles it once per job. The first executor adopts the world
// compiling built (Executor.acquire) and only later ones instantiate.
func (cfg Config) CompileBlueprint() (*topology.Blueprint, error) {
	topo, err := cfg.topologyConfig()
	if err != nil {
		return nil, err
	}
	return topology.Compile(topo, cfg.Seed)
}

// ExecuteShard executes exactly one (vantage-index, slice) shard of
// the campaign plan against a pre-compiled blueprint and returns its
// wire-form result. It runs the identical code path Run's worker pool
// uses (Executor.runShard: reseeded, transient-reset, epoch-pinned
// per-trace contexts) on a world that ran nothing before — the
// blueprint's spare if no executor has taken it, else a fresh
// instantiation, which are the same state — so the returned traces are
// byte-identical to the same shard executed in-process (the property
// that makes cross-machine merges exact), and it is the fresh-world
// oracle every reused-world sequence is tested against. A caller with
// many shards of one job to run keeps an Executor instead. SpecHash is
// left empty; the uploading caller stamps the hash of the spec it
// derived cfg from.
func ExecuteShard(cfg Config, bp *topology.Blueprint, shard, slice int) (*ShardResultWire, error) {
	return NewExecutor(cfg, bp).Execute(shard, slice)
}

// MergeWire reassembles uploaded shard results — which must arrive in
// canonical (vantage, slice) plan order, one per planned shard — into
// a merged Result via the same canonical merge the in-process engine
// uses. Result.World is nil (no world was instantiated here); every
// stored artifact (dataset bytes, run meta, CE-mark report) derives
// without it.
func MergeWire(wires []*ShardResultWire) (*Result, error) {
	if len(wires) == 0 {
		return nil, fmt.Errorf("campaign: merge of zero shard results")
	}
	results := make([]shardResult, len(wires))
	for i, w := range wires {
		if w == nil {
			return nil, fmt.Errorf("campaign: shard result %d missing from merge", i)
		}
		if w.Version != ShardWireVersion {
			return nil, fmt.Errorf("campaign: shard result %d has wire version %d (this build speaks %d)",
				i, w.Version, ShardWireVersion)
		}
		if i > 0 {
			prev := wires[i-1]
			if w.Shard < prev.Shard || (w.Shard == prev.Shard && w.Slice <= prev.Slice) {
				return nil, fmt.Errorf("campaign: shard results out of canonical order: (%d,%d) after (%d,%d)",
					w.Shard, w.Slice, prev.Shard, prev.Slice)
			}
		}
		results[i] = w.shardResult()
	}
	return merge(results), nil
}
