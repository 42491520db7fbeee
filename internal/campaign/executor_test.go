package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/capture"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// wireBytes is a shard result as it would cross the wire, with the one
// wall-clock field masked: everything else — traces, server list,
// congestion sample, and every ShardStats counter (Events,
// WheelCascades, WheelRegisterHits, PhantomEvents, ReplayedBoundaries,
// VirtualTime) — must be equal byte for byte.
func wireBytes(w *ShardResultWire) []byte {
	masked := *w
	masked.Stats.Elapsed = 0
	raw, err := json.Marshal(&masked)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return raw
}

// freshOracle answers "what does this shard produce on a world
// instantiated for it alone" through the one-shot ExecuteShard, caching
// per shard.
type freshOracle struct {
	t      testing.TB
	cfg    Config
	bp     *topology.Blueprint
	shards []ShardInfo
	want   map[int][]byte
}

func newFreshOracle(t testing.TB, cfg Config) *freshOracle {
	t.Helper()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	return &freshOracle{t: t, cfg: cfg, bp: bp, shards: cfg.Shards(), want: make(map[int][]byte)}
}

func (o *freshOracle) bytes(i int) []byte {
	if b, ok := o.want[i]; ok {
		return b
	}
	w, err := ExecuteShard(o.cfg, o.bp, o.shards[i].Shard, o.shards[i].Slice)
	if err != nil {
		o.t.Fatal(err)
	}
	o.want[i] = wireBytes(w)
	return o.want[i]
}

// TestExecutorOrderInvariance is the reused world's differential: any
// sequence of shards run on one executor — so on one world, reset
// between them — produces, shard for shard, the bytes the one-shot
// ExecuteShard produces on a fresh world. The sequences come from
// testing/quick (repeats and sweep/non-sweep slices of one vantage
// back to back included); the grid is every scenario × both schedulers
// × both cross-traffic drives, with DNS discovery on, whose zone
// cursors are exactly the kind of state a careless Reset would leak.
func TestExecutorOrderInvariance(t *testing.T) {
	for _, scenario := range Scenarios() {
		for _, sched := range []netsim.Scheduler{netsim.SchedWheel, netsim.SchedHeap} {
			for _, xt := range []netsim.XTrafficMode{netsim.XTrafficLazy, netsim.XTrafficEvents} {
				if testing.Short() && (sched != netsim.SchedWheel || xt != netsim.XTrafficLazy) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", scenario, sched.Name(), xt.Name()), func(t *testing.T) {
					cfg := testConfig()
					cfg.Scenario = scenario
					cfg.Scheduler = sched
					cfg.XTraffic = xt
					cfg.SlicesPerVantage = 2
					cfg.Discover = true
					cfg.DiscoveryRounds = 4
					oracle := newFreshOracle(t, cfg)

					// quick supplies the seed; the sequence — two to five
					// shards, repeats allowed — is drawn from it.
					sequence := func(seed int64) bool {
						rng := rand.New(rand.NewSource(seed))
						picks := make([]int, 2+rng.Intn(4))
						for i := range picks {
							picks[i] = rng.Intn(len(oracle.shards))
						}
						ex := NewExecutor(cfg, oracle.bp)
						for step, i := range picks {
							sh := oracle.shards[i]
							w, err := ex.Execute(sh.Shard, sh.Slice)
							if err != nil {
								t.Errorf("step %d, shard (%d,%d): %v", step, sh.Shard, sh.Slice, err)
								return false
							}
							if !bytes.Equal(wireBytes(w), oracle.bytes(i)) {
								t.Errorf("sequence %v: step %d, shard (%d,%d) on a reused world differs from a fresh one",
									picks, step, sh.Shard, sh.Slice)
								return false
							}
						}
						return true
					}
					if err := quick.Check(sequence, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(21))}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestExecutorDropsFailedWorld: a shard that errors leaves its world
// wherever the failure found it, so the executor discards that world —
// it never resets one — and the next shard instantiates afresh. The
// failure here is a hook that runs the clock past the trace's epoch
// after squatting on a UDP port; the shard after it, and the one after
// that (which does reuse a world), still match the fresh-world oracle.
func TestExecutorDropsFailedWorld(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	cfg.SlicesPerVantage = 2
	oracle := newFreshOracle(t, cfg)

	var worlds []*topology.World
	sabotage := false
	hooked := cfg
	hooked.ShardHook = func(_ int, vantage string, w *topology.World) {
		worlds = append(worlds, w)
		if !sabotage {
			return
		}
		v, _ := w.VantageByName(vantage)
		if _, err := v.Host.BindUDP(49153, func(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte) {}); err != nil {
			t.Error(err)
		}
		w.Sim.RunUntil(traceStartAt(MaxTracesPerVantage))
	}
	ex := NewExecutor(hooked, oracle.bp)
	run := func(i int) (*ShardResultWire, error) {
		return ex.Execute(oracle.shards[i].Shard, oracle.shards[i].Slice)
	}

	if _, err := run(0); err != nil {
		t.Fatal(err)
	}
	sabotage = true
	if _, err := run(1); err == nil || !strings.Contains(err.Error(), "overran its epoch") {
		t.Fatalf("sabotaged shard returned %v, want an epoch overrun", err)
	}
	sabotage = false
	for _, i := range []int{2, 1} {
		w, err := run(i)
		if err != nil {
			t.Fatalf("shard %d after a failed shard: %v", i, err)
		}
		if !bytes.Equal(wireBytes(w), oracle.bytes(i)) {
			t.Errorf("shard %d after a failed shard differs from a fresh world", i)
		}
	}
	if len(worlds) != 4 {
		t.Fatalf("hook ran %d times, want 4", len(worlds))
	}
	if worlds[1] != worlds[0] {
		t.Error("second shard did not reuse the first shard's world")
	}
	if worlds[2] == worlds[1] {
		t.Error("the failed shard's world was reused")
	}
	if worlds[3] != worlds[2] {
		t.Error("the world instantiated after the failure was not reused")
	}
}

// TestExecutorCaptureMatchesFresh: a ShardHook capture tap on a reused
// world records the packets a fresh world would — same instants, same
// wire bytes, so the same IP IDs and ephemeral ports — and only that
// shard's: the reset before the next shard removes the tap.
func TestExecutorCaptureMatchesFresh(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	var rec *capture.Recorder
	cfg.ShardHook = func(_ int, vantage string, w *topology.World) {
		if rec != nil {
			v, _ := w.VantageByName(vantage)
			v.Host.AddTap(rec.Tap)
		}
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	shards := cfg.Shards()
	run := func(ex *Executor, i int, into *capture.Recorder) {
		t.Helper()
		rec = into
		if _, err := ex.Execute(shards[i].Shard, shards[i].Slice); err != nil {
			t.Fatal(err)
		}
	}

	fresh := capture.NewRecorder(0)
	run(NewExecutor(cfg, bp), 5, fresh)

	ex := NewExecutor(cfg, bp)
	first, reused := capture.NewRecorder(0), capture.NewRecorder(0)
	run(ex, 2, first)
	taken := first.Len()
	run(ex, 5, reused)
	if first.Len() != taken {
		t.Errorf("the first shard's tap recorded %d more packets during the second shard", first.Len()-taken)
	}

	want, got := fresh.Records(), reused.Records()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("captured %d packets on the reused world, %d on a fresh one", len(got), len(want))
	}
	for i := range want {
		if got[i].At != want[i].At || got[i].Dir != want[i].Dir || !bytes.Equal(got[i].Wire, want[i].Wire) {
			t.Fatalf("packet %d differs between the reused and the fresh world:\n  reused %v %v %x\n  fresh  %v %v %x",
				i, got[i].At, got[i].Dir, got[i].Wire, want[i].At, want[i].Dir, want[i].Wire)
		}
	}
}

// TestExecutorsConcurrent runs several executors at once over one
// shared blueprint, each resetting its own world between shards, and
// holds every result to the fresh-world oracle. Run it under
// -race -count=10: executors must share nothing mutable — not the
// blueprint's directory template, not a probe-shell pool.
func TestExecutorsConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.Traces = 1
	cfg.Stride = 0
	cfg.Discover = true
	cfg.DiscoveryRounds = 2
	oracle := newFreshOracle(t, cfg)
	const executors, perExecutor = 5, 3
	for i := 0; i < executors; i++ {
		oracle.bytes(i) // fill the cache before the goroutines read it
	}

	var wg sync.WaitGroup
	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(cfg, oracle.bp)
			for step := 0; step < perExecutor; step++ {
				i := (g + step) % executors
				w, err := ex.Execute(oracle.shards[i].Shard, oracle.shards[i].Slice)
				if err != nil {
					t.Errorf("executor %d step %d: %v", g, step, err)
					return
				}
				if !bytes.Equal(wireBytes(w), oracle.want[i]) {
					t.Errorf("executor %d step %d: shard %d differs from a fresh world", g, step, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
