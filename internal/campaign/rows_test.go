package campaign

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/traceroute"
)

// TestPathObsAliasesShardSlabs: a sweep row is copied once, into its
// shard's slab, and merge hands the slabs on as Result.PathObs's
// segments — the same backing arrays, in plan order — leaving out the
// slices that own no sweep. Run's segments are the same count of exactly
// sized slabs, not windows into one flat copy.
func TestPathObsAliasesShardSlabs(t *testing.T) {
	cfg := testConfig()
	cfg.SlicesPerVantage = 2
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cfg, bp)
	results := make([]shardResult, len(ex.shards))
	var slabs [][]traceroute.PathObservation
	for i, sh := range ex.shards {
		if results[i], err = ex.runShard(sh, true); err != nil {
			t.Fatal(err)
		}
		if len(results[i].obs) > 0 {
			slabs = append(slabs, results[i].obs)
		}
	}
	if len(slabs) == 0 {
		t.Fatal("no shard's sweep produced rows")
	}

	merged := merge(results)
	if len(merged.PathObs) != len(slabs) {
		t.Fatalf("merge made %d segments of %d shards' rows", len(merged.PathObs), len(slabs))
	}
	for k, seg := range merged.PathObs {
		if len(seg) != len(slabs[k]) || &seg[0] != &slabs[k][0] {
			t.Errorf("segment %d (%d rows) is not shard slab %d (%d rows): the merge copied it", k, len(seg), k, len(slabs[k]))
		}
	}

	res := runOrFatal(t, cfg)
	if len(res.PathObs) != len(slabs) {
		t.Fatalf("Run made %d segments, want one per sweep shard with rows (%d)", len(res.PathObs), len(slabs))
	}
	for k, seg := range res.PathObs {
		if cap(seg) != len(seg) {
			t.Errorf("segment %d has cap %d for %d rows: a window into a larger slice, not a shard's slab", k, cap(seg), len(seg))
		}
	}
}

// TestExecuteKeepsNoRows: Execute — the wire path, which remote workers
// and the coordinator's loopback run — still sweeps, so a sweep shard's
// events equal Run's for it, but stages and keeps none of the rows the
// wire would drop. On a warmed executor (world, sweep shell and staging
// already grown) a dense sweep shard therefore allocates less than its
// row slab alone would take.
func TestExecuteKeepsNoRows(t *testing.T) {
	cfg := testConfig()
	cfg.TracePlan = map[string]int{"EC2 Ireland": 1}
	cfg.Stride = 1
	res := runOrFatal(t, cfg)
	rows := rowCount(res.PathObs)
	if rows == 0 {
		t.Fatal("the sweep produced no rows")
	}
	slab := uint64(rows) * uint64(unsafe.Sizeof(traceroute.PathObservation{}))

	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cfg, bp)
	sh := cfg.Shards()[0]
	for warm := 0; warm < 2; warm++ {
		if _, err := ex.Execute(sh.Shard, sh.Slice); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := ex.Execute(sh.Shard, sh.Slice)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Events != res.Shards[0].Events {
		t.Errorf("Execute ran %d events, Run's shard %d", w.Stats.Events, res.Shards[0].Events)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows (a %d B slab); Execute allocated %d B", rows, slab, allocated)
	if !raceEnabled && allocated >= slab/2 {
		t.Errorf("Execute allocated %d B, want < %d B, half the %d-row slab it must not build", allocated, slab/2, rows)
	}
}
