// Command benchreport measures the repository's performance trajectory
// and writes it as JSON. CI runs it via `make bench` and uploads the
// output (BENCH_10.json) as a build artifact, so regressions in campaign
// wall-clock or packet hot-path throughput are visible across PRs.
//
// Five metric families:
//
//   - campaign wall-clock: the small-scale sharded campaign under every
//     scenario — uncongested, congested-edge and congested-transit (the
//     congested rows also record the CE-mark ratios as a calibration
//     canary). Congested scenarios run under both cross-traffic drives:
//     the lazy catch-up replay (the default) and the legacy
//     event-per-phantom-boundary oracle, with each row reporting the
//     phantom-boundary split (events vs replayed) so the saved
//     scheduler work is visible. Worker × slice scaling rows follow,
//     and each scenario's lazy row has an instrumented twin
//     ("telemetry": true) running with a full flight-recorder Metrics
//     set attached — the instrumented-vs-uninstrumented pair behind
//     the perf gate's <2% overhead budget;
//   - world setup: compiling the frozen topology blueprint (once per
//     campaign) vs instantiating a shard world from it (once per
//     shard) — the fixed costs sharding multiplies;
//   - scheduler throughput: the simulator event loop on the dense mixed
//     near/far timer kernel and on the sparse-timeline kernel, timing
//     wheel vs heap fallback, with allocs/op (must be zero);
//   - CE-mark throughput and packet build: the pooled per-packet costs,
//     also required allocation-free;
//   - control-plane service: a cold spec submission through cmd/reprod's
//     HTTP surface (submit + poll + dataset fetch) against the direct
//     campaign.Run it wraps — the job-manager overhead, expected under
//     5% — the cache-hit resubmission, expected near-instant, and the
//     same campaign farmed out over the lease/heartbeat worker protocol
//     to four in-process workers (service/distributed-w4), whose
//     overhead vs direct is the coordinator round-trip plus
//     wire-serialization cost of distribution. The distributed shape
//     runs twice — with the write-ahead journal (the production
//     default) and without (service/distributed-w4-nojournal) — and
//     the journal row carries the fsync cost of crash tolerance as
//     journal_overhead_vs_nojournal, budgeted under 5%. A second
//     distributed pair injects a straggler that claims a batch and
//     dies: with straggler speculation on, healthy workers race
//     speculative twins of the dead worker's shards and finish early;
//     with it off, the job waits out the full lease TTL — the pair's
//     wall-clock gap is what speculation buys.
//
// Campaign knobs come from the shared spec flag surface
// (campaign.BindSpecFlags): explicit flags > REPRO_* env > the small
// two-trace base below.
//
// Usage:
//
//	benchreport [-o BENCH_10.json] [-seed N] [-traces N] [-scale S]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apiclient"
	"repro/internal/aqm"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/worker"
)

type campaignRow struct {
	Scenario string `json:"scenario"`
	Scale    string `json:"scale"`
	Traces   int    `json:"traces_per_vantage"`
	Workers  int    `json:"workers"`
	Slices   int    `json:"slices_per_vantage"`
	XTraffic string `json:"xtraffic"`
	// Telemetry marks rows run with a full flight-recorder Metrics set
	// attached; compare against the same shape without it for the
	// instrumentation overhead.
	Telemetry   bool    `json:"telemetry,omitempty"`
	Shards      int     `json:"shards"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	// PhantomEvents counts phantom serialization boundaries that ran as
	// scheduler events; ReplayedBoundaries counts the ones the lazy
	// drive replayed arithmetically. Their sum is drive-invariant.
	PhantomEvents      uint64 `json:"events_phantom"`
	ReplayedBoundaries uint64 `json:"boundaries_replayed"`
	TracesRun          int    `json:"traces_run"`
	AllocsPerOp        int64  `json:"allocs_per_op"`
	// Congested scenarios only: the CE-mark report aggregates.
	ObservedCERatio float64 `json:"ce_observed_ratio,omitempty"`
	QueueMarkRatio  float64 `json:"ce_queue_ratio,omitempty"`
}

type hotPathRow struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
	EventsPerSec  float64 `json:"events_per_sec,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	// AQM rows only.
	CEMarkFraction float64 `json:"ce_mark_fraction,omitempty"`
}

// serviceRow times one interaction with the control plane (or, for the
// direct-run baseline, the engine work the control plane wraps).
type serviceRow struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// Cached marks the resubmission row served from the result store.
	Cached bool `json:"cached,omitempty"`
	// OverheadVsDirect is (row - direct run) / direct run; the job
	// manager plus HTTP transport should stay under 5%.
	OverheadVsDirect float64 `json:"overhead_vs_direct,omitempty"`
	// JournalOverheadVsNoJournal, on the journaled distributed row, is
	// (journal on - journal off) / journal off: the fsync-before-ack
	// price of crash tolerance, budgeted under 5%.
	JournalOverheadVsNoJournal float64 `json:"journal_overhead_vs_nojournal,omitempty"`
}

type report struct {
	Schema     string        `json:"schema"`
	GoMaxProcs int           `json:"go_max_procs"`
	Campaigns  []campaignRow `json:"campaigns"`
	HotPaths   []hotPathRow  `json:"hot_paths"`
	Service    []serviceRow  `json:"service"`
}

func main() {
	out := flag.String("o", "BENCH_10.json", "output path (- for stdout)")
	base := campaign.DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 0
	specFlags := campaign.BindSpecFlags(flag.CommandLine, campaign.FlagOptions{Base: base})
	flag.Parse()
	spec, err := specFlags.Resolve()
	if err != nil {
		fatal("%v", err)
	}

	rep := report{Schema: "repro-bench/10", GoMaxProcs: runtime.GOMAXPROCS(0)}

	// Hot paths run first, in a clean heap: the campaigns below leave
	// hundreds of megabytes of dataset behind, and measuring
	// cache-sensitive microbenchmarks in that environment understates
	// them.
	rep.HotPaths = append(rep.HotPaths, benchScheduler()...)
	rep.HotPaths = append(rep.HotPaths, benchWorldSetup(spec.Seed)...)
	for _, name := range []string{"droptail", "red", "codel"} {
		rep.HotPaths = append(rep.HotPaths, benchAQM(name))
	}
	rep.HotPaths = append(rep.HotPaths, benchBuildUDP())

	// Scenario rows: every congestion scenario at the default shape on
	// the lazy cross-traffic drive, plus the event-per-phantom-boundary
	// oracle for the congested scenarios — the before/after pair whose
	// event counts and wall-clock quantify the coalesced fast path.
	for _, scenario := range campaign.Scenarios() {
		rep.Campaigns = append(rep.Campaigns, benchCampaign(rowSpec(spec, scenario, "lazy", 0, 1), false))
		rep.Campaigns = append(rep.Campaigns, benchCampaign(rowSpec(spec, scenario, "lazy", 0, 1), true))
		if scenario != campaign.ScenarioUncongested {
			rep.Campaigns = append(rep.Campaigns, benchCampaign(rowSpec(spec, scenario, "events", 0, 1), false))
		}
	}
	// Scaling rows: worker pool × sub-vantage slicing on the uncongested
	// baseline. With slices > 1 the campaign splits into more shards
	// than vantages, so an 8-worker pool stays packed instead of idling
	// behind the 13-shard cap.
	for _, shape := range []struct{ workers, slices int }{
		{1, 1}, {4, 1}, {8, 1}, {8, 2}, {8, 4},
	} {
		rep.Campaigns = append(rep.Campaigns,
			benchCampaign(rowSpec(spec, campaign.ScenarioUncongested, "lazy", shape.workers, shape.slices), false))
	}

	// Control-plane rows: the same base campaign, cold through the HTTP
	// service vs direct through the engine, then resubmitted for the
	// cache-hit path.
	rep.Service = benchService(spec)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("create %s: %v", *out, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal("close %s: %v", *out, err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal("encode: %v", err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "benchreport: written to %s\n", *out)
	}
}

// rowSpec derives one benchmark row's campaign from the resolved base
// spec by overriding the scenario and execution shape.
func rowSpec(base campaign.Spec, scenario, xtraffic string, workers, slices int) campaign.Spec {
	s := base.Normalized()
	s.Scenario = scenario
	s.XTraffic = xtraffic
	s.Workers = workers
	s.SlicesPerVantage = slices
	return s
}

// benchCampaign runs one small-scale campaign and records wall clock,
// executed events (with the phantom-vs-foreground split), and
// allocations per campaign run. With instrumented set, a full
// flight-recorder Metrics set rides along, as it does under the
// control plane.
func benchCampaign(spec campaign.Spec, instrumented bool) campaignRow {
	cfg, err := spec.Config()
	if err != nil {
		fatal("campaign %s: %v", spec.Scenario, err)
	}
	if instrumented {
		cfg.Metrics = campaign.NewMetrics(telemetry.NewRegistry())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		fatal("campaign %s: %v", spec.Scenario, err)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	workers := spec.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slices := spec.SlicesPerVantage
	if slices == 0 {
		slices = 1
	}
	row := campaignRow{
		Scenario:           spec.Scenario,
		Scale:              spec.Scale,
		Traces:             spec.Traces,
		Workers:            workers,
		Slices:             slices,
		XTraffic:           spec.XTraffic,
		Telemetry:          instrumented,
		Shards:             len(res.Shards),
		WallSeconds:        wall,
		Events:             res.Events,
		PhantomEvents:      res.PhantomEvents,
		ReplayedBoundaries: res.ReplayedBoundaries,
		TracesRun:          len(res.Dataset.Traces),
		AllocsPerOp:        int64(after.Mallocs - before.Mallocs),
	}
	if len(res.Congestion) > 0 {
		ce := analysis.ComputeCEMarkReport(res.Congestion)
		row.ObservedCERatio = ce.ObservedCERatio
		row.QueueMarkRatio = ce.QueueMarkRatio
	}
	return row
}

// benchWorldSetup measures the campaign's fixed costs: compiling the
// frozen blueprint (once per campaign) and instantiating a shard world
// from it (once per shard — the cost sub-vantage slicing multiplies,
// and the reason shared worlds exist).
func benchWorldSetup(seed int64) []hotPathRow {
	cfg := topology.SmallConfig()
	compile := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := topology.Compile(cfg, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	bp, err := topology.Compile(cfg, seed)
	if err != nil {
		fatal("compile blueprint: %v", err)
	}
	instantiate := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := bp.Instantiate(netsim.NewSim(seed)); err != nil {
				b.Fatal(err)
			}
		}
	})
	return []hotPathRow{
		{Name: "world/compile", NsPerOp: float64(compile.NsPerOp()), AllocsPerOp: compile.AllocsPerOp()},
		{Name: "world/instantiate", NsPerOp: float64(instantiate.NsPerOp()), AllocsPerOp: instantiate.AllocsPerOp()},
	}
}

// benchScheduler measures the simulator event loop on both shared
// kernels — the dense mixed near/far timer churn and the sparse
// timeline — for the default timing wheel and the heap fallback.
func benchScheduler() []hotPathRow {
	kernels := []struct {
		suffix string
		run    func(*netsim.Sim, int)
	}{
		// The same kernels the perf-gated BenchmarkSimSchedule and
		// BenchmarkSimScheduleSparse run, so these rows track the gate.
		{"", netsim.ScheduleBenchWorkload},
		{"-sparse", netsim.ScheduleBenchWorkloadSparse},
	}
	var rows []hotPathRow
	for _, k := range kernels {
		for _, sched := range []netsim.Scheduler{netsim.SchedWheel, netsim.SchedHeap} {
			// Each calibration run gets a fresh, warmed simulator so the
			// measured region matches the go-test benchmark's shape.
			sched, kernel := sched, k.run
			r := testing.Benchmark(func(b *testing.B) {
				b.StopTimer()
				s := netsim.NewSimSched(1, sched)
				kernel(s, 4096) // warm the slab and free list
				b.ReportAllocs()
				b.StartTimer()
				kernel(s, b.N)
			})
			rows = append(rows, hotPathRow{
				Name:         "sim/sched-" + sched.Name() + k.suffix,
				NsPerOp:      float64(r.NsPerOp()),
				EventsPerSec: 1e9 / float64(r.NsPerOp()),
				AllocsPerOp:  r.AllocsPerOp(),
			})
		}
	}
	return rows
}

// benchAQM measures the pooled enqueue→mark→dequeue hot path of one
// discipline under saturation, mirroring BenchmarkCEMarkThroughput.
func benchAQM(name string) hotPathRow {
	q, err := aqm.New(name, 50, rand.New(rand.NewSource(2015)))
	if err != nil {
		fatal("aqm %s: %v", name, err)
	}
	template, err := packet.BuildUDP(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, ecn.ECT0, 1, make([]byte, 480))
	if err != nil {
		fatal("build packet: %v", err)
	}
	ring := make([]*packet.Buf, 64)
	for i := range ring {
		ring[i] = packet.NewBuf()
		ring[i].Write(template)
	}
	now := time.Duration(0)
	i := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			bf := ring[i&63]
			if err := packet.SetWireECN(bf.Bytes(), ecn.ECT0); err != nil {
				b.Fatal(err)
			}
			q.Enqueue(now, aqm.NewPacket(bf.Retain()))
			if q.Len() > 30 {
				if p, ok := q.Dequeue(now); ok {
					p.TakeBuf().Release()
				}
			}
			now += 200 * time.Microsecond
			i++
		}
	})
	st := q.Stats()
	row := hotPathRow{
		Name:          "aqm/" + name,
		NsPerOp:       float64(r.NsPerOp()),
		PacketsPerSec: 1e9 / float64(r.NsPerOp()),
		AllocsPerOp:   r.AllocsPerOp(),
	}
	if st.WireECT > 0 {
		row.CEMarkFraction = float64(st.WireCEMarked) / float64(st.WireECT)
	}
	return row
}

// benchBuildUDP measures pooled IPv4+UDP serialization: build into a
// pooled buffer, then release it — the steady-state cost of every
// probe datagram the campaign sends.
func benchBuildUDP() hotPathRow {
	src := packet.AddrFrom4(10, 0, 0, 1)
	dst := packet.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 48) // NTP-sized
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			bf, err := packet.BuildUDPBuf(src, dst, 123, 123, 64, ecn.ECT0, uint16(n), payload)
			if err != nil {
				b.Fatal(err)
			}
			bf.Release()
		}
	})
	return hotPathRow{
		Name:          "packet/build-udp-pooled",
		NsPerOp:       float64(r.NsPerOp()),
		PacketsPerSec: 1e9 / float64(r.NsPerOp()),
		AllocsPerOp:   r.AllocsPerOp(),
	}
}

// benchService measures the control plane wrapping the engine: a cold
// spec submission over HTTP (submit, poll to done, fetch the dataset)
// against a direct campaign.Run + dataset encode of the same spec, and
// the cache-hit resubmission. Cold-submit overhead beyond the direct
// run is the job manager plus transport; it should stay under 5%.
func benchService(spec campaign.Spec) []serviceRow {
	spec = spec.Normalized()

	// Direct baseline: exactly the work a cold job performs.
	cfg, err := spec.Config()
	if err != nil {
		fatal("service baseline: %v", err)
	}
	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		fatal("service baseline: %v", err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		fatal("service baseline: %v", err)
	}
	direct := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "benchreport-service-*")
	if err != nil {
		fatal("service: %v", err)
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{DataDir: dir, Jobs: 1})
	if err != nil {
		fatal("service: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := spec.Canonical()
	if err != nil {
		fatal("service: %v", err)
	}
	cold := timeSubmission(ts.URL, body)
	hit := timeSubmission(ts.URL, body)

	// The distributed pair: the production shape (write-ahead journal
	// on) against the same fan-out with the journal disabled, isolating
	// the fsync-before-ack cost of crash tolerance.
	noJournal := benchDistributed(spec, direct, true)
	journaled := benchDistributed(spec, direct, false)
	journaled.JournalOverheadVsNoJournal =
		(journaled.WallSeconds - noJournal.WallSeconds) / noJournal.WallSeconds

	// The straggler pair: same fan-out with a worker that claims a
	// batch and dies. Speculation on, healthy workers race twins of
	// the dead shards; off, the job waits out the lease TTL.
	specOn := benchStraggler(spec, direct, true)
	specOff := benchStraggler(spec, direct, false)
	return []serviceRow{
		{Name: "service/direct-run", WallSeconds: direct},
		{Name: "service/cold-submit", WallSeconds: cold, OverheadVsDirect: (cold - direct) / direct},
		{Name: "service/cache-hit", WallSeconds: hit, Cached: true},
		journaled,
		noJournal,
		specOn,
		specOff,
	}
}

// benchStraggler farms the campaign out to four workers plus one
// straggler that claims a two-shard batch and dies without uploading
// or heartbeating. With speculation on (speculate-after 1.5) the
// healthy workers are handed speculative twins of the dead shards as
// soon as the duration history says they straggled; with it off the
// job stalls until the straggler's leases run out the full TTL. The
// wall-clock gap between the pair is speculation's straggler-recovery
// win.
func benchStraggler(spec campaign.Spec, direct float64, speculateOn bool) serviceRow {
	const workers = 4
	const leaseTTL = 3 * time.Second
	dspec := spec.Normalized()
	dspec.Execution = campaign.ExecutionDistributed

	dir, err := os.MkdirTemp("", "benchreport-straggler-*")
	if err != nil {
		fatal("straggler: %v", err)
	}
	defer os.RemoveAll(dir)
	speculateAfter := 1.5
	if !speculateOn {
		speculateAfter = -1
	}
	srv, err := server.New(server.Config{
		DataDir:        dir,
		Jobs:           1,
		LeaseTTL:       leaseTTL,
		SpeculateAfter: speculateAfter,
	})
	if err != nil {
		fatal("straggler: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	client := apiclient.New(ts.URL)
	start := time.Now()
	job, _, err := client.Submit(ctx, dspec)
	if err != nil {
		fatal("straggler submit: %v", err)
	}
	// The straggler: claim two shards, then nothing — no heartbeat, no
	// upload, no release.
	if _, err := client.Claim(ctx, job.ID, "bench-straggler", 2); err != nil {
		fatal("straggler claim: %v", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// No ExitWhenIdle: the pool can look empty while the dead
			// shards wait on speculation or expiry; keep polling until
			// the job is done and the context is cut.
			_, _ = worker.Run(wctx, worker.Config{
				Client: client,
				ID:     fmt.Sprintf("bench-w%d", i),
				Batch:  2,
				Poll:   5 * time.Millisecond,
			})
		}(i)
	}
	if _, err := client.AwaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
		fatal("straggler await: %v", err)
	}
	wall := time.Since(start).Seconds()
	cancel()
	wg.Wait()
	name := fmt.Sprintf("service/distributed-w%d-straggler-speculation", workers)
	if !speculateOn {
		name = fmt.Sprintf("service/distributed-w%d-straggler-nospeculation", workers)
	}
	return serviceRow{
		Name:             name,
		WallSeconds:      wall,
		OverheadVsDirect: (wall - direct) / direct,
	}
}

// benchDistributed farms the same campaign out over the worker
// protocol: a fresh coordinator (fresh store, so the cold-submit run
// above cannot be a cache hit — the cache key strips execution shape)
// with four in-process workers claiming, executing and uploading
// shards over HTTP. Overhead vs the direct run is the full cost of
// distribution at this scale: claim/heartbeat/upload round-trips plus
// wire serialization and the coordinator's canonical-order merge.
func benchDistributed(spec campaign.Spec, direct float64, disableJournal bool) serviceRow {
	const workers = 4
	dspec := spec.Normalized()
	dspec.Execution = campaign.ExecutionDistributed

	dir, err := os.MkdirTemp("", "benchreport-dist-*")
	if err != nil {
		fatal("distributed: %v", err)
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{DataDir: dir, Jobs: 1, DisableJournal: disableJournal})
	if err != nil {
		fatal("distributed: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	client := apiclient.New(ts.URL)
	start := time.Now()
	job, _, err := client.Submit(ctx, dspec)
	if err != nil {
		fatal("distributed submit: %v", err)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = worker.Run(ctx, worker.Config{
				Client:       client,
				ID:           fmt.Sprintf("bench-w%d", i),
				Batch:        2,
				Poll:         time.Millisecond,
				ExitWhenIdle: true,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			fatal("distributed worker %d: %v", i, err)
		}
	}
	if _, err := client.AwaitJob(ctx, job.ID, time.Millisecond); err != nil {
		fatal("distributed: %v", err)
	}
	if _, err := client.JobDataset(ctx, job.ID); err != nil {
		fatal("distributed fetch: %v", err)
	}
	wall := time.Since(start).Seconds()
	name := fmt.Sprintf("service/distributed-w%d", workers)
	if disableJournal {
		name += "-nojournal"
	}
	return serviceRow{
		Name:             name,
		WallSeconds:      wall,
		OverheadVsDirect: (wall - direct) / direct,
	}
}

// timeSubmission runs one client interaction end to end: POST the spec,
// poll the job until done, download the dataset. Returns wall seconds.
func timeSubmission(baseURL string, spec []byte) float64 {
	start := time.Now()
	resp, err := http.Post(baseURL+"/v1/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		fatal("service submit: %v", err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		fatal("service submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		fatal("service submit: status %d: %s", resp.StatusCode, view.Error)
	}
	for view.State != "done" {
		if view.State == "failed" {
			fatal("service job %s failed: %s", view.ID, view.Error)
		}
		time.Sleep(time.Millisecond)
		resp, err := http.Get(baseURL + "/v1/jobs/" + view.ID)
		if err != nil {
			fatal("service poll: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			fatal("service poll: %v", err)
		}
	}
	resp, err = http.Get(baseURL + "/v1/jobs/" + view.ID + "/dataset")
	if err != nil {
		fatal("service fetch: %v", err)
	}
	var sink bytes.Buffer
	if _, err := sink.ReadFrom(resp.Body); err != nil {
		fatal("service fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal("service fetch: status %d", resp.StatusCode)
	}
	return time.Since(start).Seconds()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
	os.Exit(1)
}
