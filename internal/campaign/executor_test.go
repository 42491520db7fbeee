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
	"time"

	"repro/internal/capture"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traceroute"
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

// shardOutput is everything a shard produced, in comparable form: its
// wire bytes, and — because the wire drops them — the canonical digest
// of its traceroute sweep's rows (traceroute.HashRows; the digest of no
// rows for a slice that does not own the sweep).
type shardOutput struct {
	wire    []byte
	rows    int
	rowHash string
}

func (a shardOutput) equal(b shardOutput) bool {
	return bytes.Equal(a.wire, b.wire) && a.rows == b.rows && a.rowHash == b.rowHash
}

// runOn executes plan shard i on the executor's world and digests what
// came out, the sweep rows kept. Execute is this with no rows kept.
func runOn(ex *Executor, i int) (shardOutput, error) {
	r, err := ex.runShard(ex.shards[i], true)
	if err != nil {
		return shardOutput{}, err
	}
	return shardOutput{
		wire:    wireBytes(wireFromShardResult(r)),
		rows:    len(r.obs),
		rowHash: traceroute.HashRows(r.obs),
	}, nil
}

// freshOracle answers "what does this shard produce on a world
// instantiated for it alone" — ExecuteShard's one-shot executor —
// caching per shard. It answers from a blueprint of its own whose spare
// it has discarded, so every answer comes from an instantiation; bp,
// the blueprint the executors under test share, keeps its spare for the
// first of them.
type freshOracle struct {
	t      testing.TB
	cfg    Config
	bp     *topology.Blueprint
	own    *topology.Blueprint
	shards []ShardInfo
	want   map[int]shardOutput
}

func newFreshOracle(t testing.TB, cfg Config) *freshOracle {
	t.Helper()
	var bps [2]*topology.Blueprint
	for i := range bps {
		bp, err := cfg.CompileBlueprint()
		if err != nil {
			t.Fatal(err)
		}
		bps[i] = bp
	}
	if bps[1].TakeSpare(cfg.Seed, cfg.Scheduler, cfg.XTraffic) == nil {
		t.Fatal("the oracle's blueprint kept no spare")
	}
	return &freshOracle{t: t, cfg: cfg, bp: bps[0], own: bps[1], shards: cfg.Shards(), want: make(map[int]shardOutput)}
}

// spareTaken reports whether an executor has adopted bp's spare — and
// takes it if none has.
func (o *freshOracle) spareTaken() bool {
	return o.bp.TakeSpare(o.cfg.Seed, o.cfg.Scheduler, o.cfg.XTraffic) == nil
}

func (o *freshOracle) output(i int) shardOutput {
	if out, ok := o.want[i]; ok {
		return out
	}
	out, err := runOn(NewExecutor(o.cfg, o.own), i)
	if err != nil {
		o.t.Fatal(err)
	}
	if o.shards[i].Sweep && o.cfg.Stride > 0 && out.rows == 0 {
		o.t.Fatalf("oracle: sweep shard %d produced no rows", i)
	}
	o.want[i] = out
	return out
}

// TestExecutorOrderInvariance is the reused world's differential: any
// sequence of shards run on one executor — so on one world, reset
// between them — produces, shard for shard, the bytes and the sweep rows
// the one-shot ExecuteShard produces on a fresh world. One sequence is
// fixed, so that a sweep runs first, second, third, after a sweepless
// slice and twice in a row on the same world (its vantage's mux, its
// recycled sessions and the world's sweep shell all warm by then); the
// rest come from testing/quick (repeats and sweep/non-sweep slices of
// one vantage back to back included). The fixed sequence's executor is
// the first on its blueprint, so its first world is the one compiling
// built, adopted; the quick ones instantiate theirs. The grid is every
// scenario × both schedulers × both cross-traffic drives, with DNS
// discovery on, whose zone cursors are exactly the kind of state a
// careless Reset would leak.
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

					runSequence := func(picks []int) bool {
						ex := NewExecutor(cfg, oracle.bp)
						for step, i := range picks {
							sh := oracle.shards[i]
							got, err := runOn(ex, i)
							if err != nil {
								t.Errorf("step %d, shard (%d,%d): %v", step, sh.Shard, sh.Slice, err)
								return false
							}
							if want := oracle.output(i); !got.equal(want) {
								t.Errorf("sequence %v: step %d, shard (%d,%d) on a reused world differs from a fresh one (wire equal: %v; %d rows %.12s vs %d rows %.12s)",
									picks, step, sh.Shard, sh.Slice, bytes.Equal(got.wire, want.wire),
									got.rows, got.rowHash, want.rows, want.rowHash)
								return false
							}
						}
						return true
					}

					// Even plan indices are slice 0 of a vantage: the slice
					// that owns the sweep.
					if !oracle.shards[0].Sweep || !oracle.shards[6].Sweep || oracle.shards[1].Sweep {
						t.Fatal("plan layout changed: expected even indices to own the sweep")
					}
					if !runSequence([]int{0, 6, 2, 1, 6, 6, 0}) {
						return
					}
					if !oracle.spareTaken() {
						t.Fatal("the first executor did not adopt the blueprint's spare")
					}

					// quick supplies the seed; the sequence — two to five
					// shards, repeats allowed — is drawn from it.
					sequence := func(seed int64) bool {
						rng := rand.New(rand.NewSource(seed))
						picks := make([]int, 2+rng.Intn(4))
						for i := range picks {
							picks[i] = rng.Intn(len(oracle.shards))
						}
						return runSequence(picks)
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
// it never resets one — and the next shard instantiates afresh. Two
// failures: a hook that runs the clock past the trace's epoch after
// squatting on a UDP port, and one that loses the simulator's pending
// events twenty milliseconds into the traceroute sweep, stalling it with
// a full window of sessions registered on the vantage's mux. The shard
// after each, and the one after that (which does reuse a world), still
// match the fresh-world oracle, sweep rows included.
func TestExecutorDropsFailedWorld(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	cfg.SlicesPerVantage = 2
	oracle := newFreshOracle(t, cfg)

	var worlds []*topology.World
	sabotage := ""
	hooked := cfg
	hooked.ShardHook = func(_ int, vantage string, w *topology.World) {
		worlds = append(worlds, w)
		v, _ := w.VantageByName(vantage)
		switch sabotage {
		case "epoch":
			if _, err := v.Host.BindUDP(49153, func(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte) {}); err != nil {
				t.Error(err)
			}
			w.Sim.RunUntil(traceStartAt(MaxTracesPerVantage))
		case "sweep":
			// Armed by the sweep's first probe (the classic traceroute
			// port): nothing scheduled now could wait for the sweep's
			// epoch, since each trace's Run drains the queue.
			armed := false
			v.Host.AddTap(func(dir netsim.TapDirection, _ time.Duration, wire []byte) {
				d, err := packet.Decode(wire)
				if armed || dir != netsim.TapOut || err != nil || d.UDP == nil || d.UDP.DstPort != 33434 {
					return
				}
				armed = true
				w.Sim.After(20*time.Millisecond, w.Sim.Reset)
			})
		}
	}
	ex := NewExecutor(hooked, oracle.bp)
	mustMatch := func(i int) {
		t.Helper()
		got, err := runOn(ex, i)
		if err != nil {
			t.Fatalf("shard %d after a failed shard: %v", i, err)
		}
		if !got.equal(oracle.output(i)) {
			t.Errorf("shard %d after a failed shard differs from a fresh world", i)
		}
	}

	if _, err := runOn(ex, 0); err != nil {
		t.Fatal(err)
	}
	sabotage = "epoch"
	if _, err := runOn(ex, 1); err == nil || !strings.Contains(err.Error(), "overran its epoch") {
		t.Fatalf("sabotaged shard returned %v, want an epoch overrun", err)
	}
	sabotage = ""
	mustMatch(2)
	mustMatch(1)

	// Shard 4 is a slice 0: it owns its vantage's sweep.
	sabotage = "sweep"
	if _, err := runOn(ex, 4); err == nil || !strings.Contains(err.Error(), "sweep did not complete") {
		t.Fatalf("shard with a stalled sweep returned %v, want an incomplete sweep", err)
	}
	sabotage = ""
	stalled := worlds[len(worlds)-1]
	v, _ := stalled.VantageByName(oracle.shards[4].Vantage)
	busy := false
	v.Mux.Run(stalled.Servers[0].Addr, cfg.Traceroute, func(r traceroute.Result) { busy = len(r.Observations) == 0 })
	if !busy {
		t.Error("the stalled world's mux has no session to the sweep's first target: the sabotage missed the sweep")
	}
	mustMatch(4)
	mustMatch(0)

	if len(worlds) != 7 {
		t.Fatalf("hook ran %d times, want 7", len(worlds))
	}
	for i, reused := range []bool{true, false, true, true, false, true} {
		if got := worlds[i+1] == worlds[i]; got != reused {
			t.Errorf("shard run %d: world reused = %v, want %v (a failed shard's world is never reused, any other is)", i+1, got, reused)
		}
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
// shared blueprint, each resetting its own world between shards — trace,
// DNS discovery and traceroute sweep in every one — and holds every
// result to the fresh-world oracle, sweep rows included. Run it under
// -race -count=10: executors must share nothing mutable — not the
// blueprint's directory template, not a probe-shell pool, not a
// traceroute session.
func TestExecutorsConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.Traces = 1
	cfg.Discover = true
	cfg.DiscoveryRounds = 2
	oracle := newFreshOracle(t, cfg)
	const executors, perExecutor = 5, 3
	for i := 0; i < executors; i++ {
		oracle.output(i) // fill the cache before the goroutines read it
	}

	var wg sync.WaitGroup
	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(cfg, oracle.bp)
			for step := 0; step < perExecutor; step++ {
				i := (g + step) % executors
				got, err := runOn(ex, i)
				if err != nil {
					t.Errorf("executor %d step %d: %v", g, step, err)
					return
				}
				if !got.equal(oracle.want[i]) {
					t.Errorf("executor %d step %d: shard %d differs from a fresh world", g, step, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSpareAdoptedOnce: four executors start on one blueprint at the
// same instant. Exactly one adopts the world compiling built — counted
// as a reset — while the other three instantiate theirs, cloning the
// DNS directory template as the adopted world resets and serves its
// own; every shard still matches the fresh-world oracle. Run it under
// -race: a spare handed out twice is two executors on one simulation.
func TestSpareAdoptedOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Traces = 1
	cfg.Discover = true
	cfg.DiscoveryRounds = 2
	oracle := newFreshOracle(t, cfg)
	const executors = 4
	for i := 0; i < executors; i++ {
		oracle.output(i)
	}
	reg := telemetry.NewRegistry()
	cfg.Metrics = NewMetrics(reg)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < executors; g++ {
		ex := NewExecutor(cfg, oracle.bp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := runOn(ex, g)
			if err != nil {
				t.Errorf("executor %d: %v", g, err)
			} else if !got.equal(oracle.want[g]) {
				t.Errorf("executor %d: shard %d differs from a fresh world", g, g)
			}
		}()
	}
	close(start)
	wg.Wait()

	built := counterValue(t, reg, "repro_sim_worlds_total", telemetry.Label{Name: "op", Value: "instantiate"})
	adopted := counterValue(t, reg, "repro_sim_worlds_total", telemetry.Label{Name: "op", Value: "reset"})
	if adopted != 1 || built != executors-1 {
		t.Errorf("worlds: %d adopted and %d instantiated, want 1 and %d", adopted, built, executors-1)
	}
	if !oracle.spareTaken() {
		t.Error("the spare is still on the blueprint")
	}
}
