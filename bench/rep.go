package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/dataset"
)

// procStart approximates process start for callers that were not told
// when they were spawned (tests, in-process use).
var procStart = time.Now()

// repOptions selects one repetition of one workload.
type repOptions struct {
	Workload string
	Seed     int64
	Rep      int
	Traced   bool
	// Quick shrinks every input (small world, two traces, two jobs) so
	// the whole path runs in well under a second; its numbers mean
	// nothing and no golden or tolerance check applies.
	Quick bool
	// OutDir receives the trace file and holds the scratch data dirs.
	OutDir string
	// Spawned is when the parent started this process; zero means
	// procStart.
	Spawned time.Time
	// SetupOnly stops at the edge of the timed region: the repetition
	// reports setup_s and nothing else. The parent runs several of
	// these beside every real repetition, because a set-up of a few
	// tens of milliseconds needs more than three samples for a steady
	// median.
	SetupOnly bool
}

// repResult is what one repetition reports to the parent.
type repResult struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	// Metrics holds the repetition's scalar readings: the end-to-end
	// metrics defined on the workload and, on a traced repetition, the
	// per-layer metrics read during it.
	Metrics map[string]float64 `json:"metrics"`
	// Samples holds per-job latencies in milliseconds (the mix).
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Hash is the dataset SHA-256 (paper workloads) or the SHA-256 over
	// the per-job hashes in submission order (the mix); JobHashes are
	// the mix's cold-job dataset hashes, keyed by campaign seed.
	Hash      string            `json:"hash"`
	JobHashes map[string]string `json:"job_hashes,omitempty"`

	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`

	// spans is the traced repetition's in-memory trace; the child
	// writes it to the trace file and prints the attribution table.
	spans []span
}

// failf records one failed output check with its reason.
func (r *repResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// meter takes the deltas that bracket the timed region: wall clock,
// user+sys CPU (rusage), bytes allocated and GC cycles (MemStats).
// Set-up and output checks sit outside it.
type meter struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t0 = time.Now()
	return m
}

// stop writes wall_s, cpu_s, alloc_mb and bench.gc_count.
func (m *meter) stop(into map[string]float64) {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	into[mWall] = wall.Seconds()
	into[mCPU] = cpu.Seconds()
	into[mAlloc] = float64(ms.TotalAlloc-m.ms.TotalAlloc) / 1e6
	into["bench.gc_count"] = float64(ms.NumGC - m.ms.NumGC)
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (a xorshift chain: no memory
// traffic, no allocation) so a slow machine phase is visible beside
// the numbers it inflated.
func calibrate(quick bool) time.Duration {
	n := 40_000_000
	if quick {
		n = 1_000_000
	}
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

// paperSpec derives a paper workload's campaign spec from the seed:
// campaign.DefaultSpec (paper scale, 6 traces per vantage, stride 3,
// wheel, lazy) with the workload's scenario and execution on top.
func paperSpec(o repOptions) campaign.Spec {
	s := campaign.DefaultSpec()
	s.Seed = o.Seed
	s.Workers = concurrency()
	if o.Quick {
		s.Scale = "small"
		s.Traces = 2
	}
	switch o.Workload {
	case wlTransit:
		s.Scenario = campaign.ScenarioCongestedTransit
		s.Traces = 2
		s.Stride = 0
	case wlDistributed:
		s.Execution = campaign.ExecutionDistributed
	}
	return s
}

// scratchDir makes a fresh directory for one repetition's on-disk
// state under the output directory — inside the checkout, on whatever
// filesystem it lives on, never the system temp dir.
func scratchDir(o repOptions) (string, error) {
	root := filepath.Join(o.OutDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, o.Workload+"-*")
}

// runRep executes one repetition in this process.
func runRep(o repOptions) *repResult {
	spawned := o.Spawned
	if spawned.IsZero() {
		spawned = procStart
	}
	res := &repResult{Workload: o.Workload, Rep: o.Rep, Traced: o.Traced,
		Metrics: make(map[string]float64)}
	var rec *recorder
	if o.Traced {
		rec = newRecorder(o.Workload, spawned)
	}
	calib := calibrate(o.Quick)
	res.Metrics["bench.calib_ms"] = float64(calib) / float64(time.Millisecond)

	// timed marks the end of set-up: everything from process start to
	// here, less the calibration loop, is setup_s. It reports whether
	// the repetition stops here.
	timed := func() bool {
		res.Metrics[mSetup] = (time.Since(spawned) - calib).Seconds()
		return o.SetupOnly
	}
	var err error
	switch o.Workload {
	case wlDirect, wlTransit:
		err = runDirect(o, rec, res, timed)
	case wlDistributed:
		err = runDistributed(o, rec, res, timed)
	case wlMix:
		err = runMix(o, rec, res, timed)
	default:
		err = fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err != nil {
		res.failf("%v", err)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the repetition itself, when it died before planning
	}
	if len(res.Failures) > 0 {
		// A failed check fails every operation of the repetition: a
		// wrong dataset is not partially right.
		res.Failed = res.Attempted
	}
	res.Metrics["bench.peak_rss_mb"] = peakRSSMB()
	if rec != nil {
		res.spans = rec.snapshot()
		res.Metrics["bench.span_coverage_pct"] = coveragePct(res.spans)
	}
	return res
}

// --- direct workloads -------------------------------------------------------

// shardTracer turns campaign.Config's ShardStart/ShardDone hooks into
// campaign.shard spans and the parallel-efficiency figures.
type shardTracer struct {
	rec    *recorder
	parent uint64

	mu     sync.Mutex
	open   map[[2]int]time.Time
	shards [][2]time.Time
}

func (st *shardTracer) start(shard, slice int, _ string) {
	now := time.Now()
	st.mu.Lock()
	st.open[[2]int{shard, slice}] = now
	st.mu.Unlock()
}

func (st *shardTracer) done(s campaign.ShardStats) {
	now := time.Now()
	st.mu.Lock()
	began := st.open[[2]int{s.Shard, s.Slice}]
	st.shards = append(st.shards, [2]time.Time{began, now})
	st.mu.Unlock()
	st.rec.add(0, st.parent, "campaign.shard", began, now,
		"shard", s.Shard, "slice", s.Slice, "vantage", s.Vantage,
		"events", s.Events, "traces", s.Traces)
}

// finish records the compile and merge spans around the shard phase
// and writes the campaign.* traced metrics. runStart/runEnd bracket
// the campaign.Run call; observations is the dataset's row count.
func (st *shardTracer) finish(runStart, runEnd time.Time, workers, observations int, into map[string]float64) {
	if len(st.shards) == 0 {
		return
	}
	first, lastStart, last := st.shards[0][0], st.shards[0][0], st.shards[0][1]
	var sum time.Duration
	durs := make([]float64, 0, len(st.shards))
	for _, sh := range st.shards {
		if sh[0].Before(first) {
			first = sh[0]
		}
		if sh[0].After(lastStart) {
			lastStart = sh[0]
		}
		if sh[1].After(last) {
			last = sh[1]
		}
		d := sh[1].Sub(sh[0])
		sum += d
		durs = append(durs, ms(d))
	}
	st.rec.add(0, st.parent, "campaign.compile", runStart, first)
	st.rec.add(0, st.parent, "campaign.merge", last, runEnd)

	// Tail idle: once the last shard has been handed out, a worker
	// that finishes has nothing left to pick up. Integrate the idle
	// worker count from the last hand-out to the last completion.
	tail := time.Duration(workers) * last.Sub(lastStart)
	for _, sh := range st.shards {
		if sh[1].After(lastStart) {
			from := sh[0]
			if from.Before(lastStart) {
				from = lastStart
			}
			tail -= sh[1].Sub(from)
		}
	}
	s := summarize(durs)
	wall := runEnd.Sub(runStart)
	into["campaign.compile_ms"] = ms(first.Sub(runStart))
	into["campaign.shard_ms_p50"] = s.Median
	into["campaign.shard_ms_max"] = s.Max
	into["campaign.shard_sum_s"] = sum.Seconds()
	into["campaign.merge_ms"] = ms(runEnd.Sub(last))
	into["campaign.parallel_eff"] = sum.Seconds() / (float64(workers) * wall.Seconds())
	into["campaign.tail_idle_s"] = tail.Seconds()
	into["campaign.obs_per_s"] = float64(observations) / wall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runDirect is paper-direct and paper-transit: campaign.Run on W shard
// workers, then dataset.Write into a file and fsync. No control-plane
// code runs.
func runDirect(o repOptions, rec *recorder, res *repResult, timed func() bool) error {
	spec := paperSpec(o)
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	// Set-up proves the spec compiles before the clock starts, as a
	// front end would; campaign.Run compiles its own blueprint inside
	// the timed region (campaign.compile_ms).
	if _, err := cfg.CompileBlueprint(); err != nil {
		return err
	}
	planned := 0
	for _, sh := range cfg.Shards() {
		planned += sh.Traces
	}
	res.Attempted = planned
	dir, err := scratchDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "dataset.jsonl")

	root := rec.startRoot()
	var tracer *shardTracer
	if rec != nil {
		tracer = &shardTracer{rec: rec, open: make(map[[2]int]time.Time)}
		cfg.ShardStart, cfg.ShardDone = tracer.start, tracer.done
	}

	if timed() {
		return nil
	}
	m := startMeter()
	runSpan := rec.start("campaign.run", root.spanID())
	if tracer != nil {
		tracer.parent = runSpan.spanID()
	}
	runStart := time.Now()
	out, err := campaign.Run(cfg)
	runEnd := time.Now()
	if err != nil {
		return fmt.Errorf("campaign.Run: %w", err)
	}
	runSpan.end("events", out.Events, "shards", len(out.Shards))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := rec.start("dataset.write", root.spanID())
	if err := dataset.Write(f, out.Dataset); err != nil {
		f.Close()
		return err
	}
	write.end()
	store := rec.start("bench.store", root.spanID())
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	store.end()
	m.stop(res.Metrics)

	// Output checks, outside the timed region. The hash is taken over
	// what reached the disk, not over what was meant to.
	hash := rec.start("bench.hash", root.spanID())
	onDisk, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res.Hash = fmt.Sprintf("%x", sha256.Sum256(onDisk))
	hash.end("bytes", len(onDisk))
	res.Metrics[mBytes] = float64(len(onDisk))
	res.Metrics[mEvents] = float64(out.Events)
	if got := len(out.Dataset.Traces); got != planned {
		res.failf("short trace count: %d traces, plan has %d", got, planned)
	}

	report := rec.start("analysis.report", root.spanID())
	reportStart := time.Now()
	rep := fullReport(out)
	reportDur := time.Since(reportStart)
	report.end()
	checkPaperFigures(o, rep, res)
	root.end()

	if rec == nil {
		return nil
	}
	observations := 0
	for i := range out.Dataset.Traces {
		observations += len(out.Dataset.Traces[i].Observations)
	}
	tracer.finish(runStart, runEnd, cfg.Workers, observations, res.Metrics)
	res.Metrics["analysis.report_ms"] = ms(reportDur)
	rep.metrics(res.Metrics)
	var cascades, hits uint64
	for _, sh := range out.Shards {
		cascades += sh.WheelCascades
		hits += sh.WheelRegisterHits
	}
	res.Metrics["netsim.events"] = float64(out.Events)
	res.Metrics["netsim.phantom_events"] = float64(out.PhantomEvents)
	res.Metrics["netsim.replayed_boundaries"] = float64(out.ReplayedBoundaries)
	res.Metrics["netsim.wheel_cascades"] = float64(cascades)
	res.Metrics["netsim.wheel_register_hits"] = float64(hits)
	if observations > 0 {
		res.Metrics["netsim.events_per_obs"] = float64(out.Events) / float64(observations)
	}
	var offered, marked, notECT, tail, ect uint64
	for _, c := range out.Congestion {
		offered += c.QueueOffered
		marked += c.QueueCEMarked
		notECT += c.QueueNotECTDropped
		tail += c.QueueTailDropped
		ect += c.QueueECT
	}
	res.Metrics["aqm.offered"] = float64(offered)
	res.Metrics["aqm.ce_marked"] = float64(marked)
	res.Metrics["aqm.dropped_not_ect"] = float64(notECT)
	res.Metrics["aqm.dropped_tail"] = float64(tail)
	if ect > 0 {
		res.Metrics["aqm.mark_ratio"] = float64(marked) / float64(ect)
	}
	return nil
}

// figures are the analysis values the output checks judge: the
// paper's headline percentages and, on congested runs, the CE ratios.
type figures struct {
	fig2a, fig5            float64
	fig4Preserve, fig4ASBr float64
	hasFig4                bool
	ceObserved, ceQueue    float64
	congested              bool
}

func (f figures) metrics(into map[string]float64) {
	into["analysis.fig2a_reach_pct"] = f.fig2a
	into["analysis.fig5_negotiate_pct"] = f.fig5
	into["analysis.fig4_preserve_pct"] = f.fig4Preserve
	into["analysis.fig4_asborder_pct"] = f.fig4ASBr
	into["analysis.ce_observed_pct"] = f.ceObserved
	into["analysis.ce_queue_pct"] = f.ceQueue
}

// datasetFigures runs the reductions a bare dataset supports.
func datasetFigures(d *dataset.Dataset) figures {
	return figures{
		fig2a: analysis.ComputeFigure2a(d).Average,
		fig5:  analysis.ComputeFigure5(d).NegotiationRate,
	}
}

// fullReport runs every table and figure reduction the repository has
// on an in-process result (the work `ecnreport` does), keeping the
// values the checks need.
func fullReport(out *campaign.Result) figures {
	d := out.Dataset
	f := datasetFigures(d)
	servers := out.World.ServerAddrs()
	_ = analysis.ComputeTable1(servers, out.World.Geo)
	_ = analysis.ComputeFigure1(servers, out.World.Geo)
	_ = analysis.ComputeFigure2b(d)
	_ = analysis.ComputeFigure3a(d)
	_ = analysis.ComputeFigure3b(d)
	_ = analysis.ComputeFigure6(analysis.ComputeFigure5(d))
	_ = analysis.ComputeTable2(d)
	_ = analysis.ComputeProse(d)
	if len(out.PathObs) > 0 {
		f4 := analysis.ComputeFigure4(out.PathObs, out.World.ASN)
		f.hasFig4 = true
		if f4.RespondedObservations > 0 {
			f.fig4Preserve = 100 * float64(f4.PreservedObservations) / float64(f4.RespondedObservations)
		}
		f.fig4ASBr = 100 * f4.BoundaryFraction
	}
	if len(out.Congestion) > 0 {
		ce := analysis.ComputeCEMarkReport(out.Congestion)
		f.congested = true
		f.ceObserved = 100 * ce.ObservedCERatio
		f.ceQueue = 100 * ce.QueueMarkRatio
	}
	return f
}

// checkPaperFigures judges a paper workload's analysis values against
// golden.json's tolerances (any seed). Quick runs use the small world,
// whose percentages are not the paper's, so only the structural check
// on congestion applies there.
func checkPaperFigures(o repOptions, f figures, res *repResult) {
	g := loadGolden()
	if f.congested {
		if f.ceObserved <= 0 || f.ceQueue <= 0 {
			res.failf("tolerance miss: CE ratios must be non-zero on a congested run (observed %.3f %%, queue %.3f %%)",
				f.ceObserved, f.ceQueue)
		}
		if !o.Quick {
			g.TransitCE.Observed.check("analysis.ce_observed_pct", f.ceObserved, res)
			g.TransitCE.Queue.check("analysis.ce_queue_pct", f.ceQueue, res)
		}
		return
	}
	if o.Quick {
		return
	}
	g.Paper["fig2a_reach_pct"].check("analysis.fig2a_reach_pct", f.fig2a, res)
	g.Paper["fig5_negotiate_pct"].check("analysis.fig5_negotiate_pct", f.fig5, res)
	if f.hasFig4 {
		g.Paper["fig4_preserve_pct"].check("analysis.fig4_preserve_pct", f.fig4Preserve, res)
		g.Paper["fig4_asborder_pct"].check("analysis.fig4_asborder_pct", f.fig4ASBr, res)
	}
}

// parseAndCheck applies the dataset-only figure checks to dataset
// bytes fetched over HTTP and returns the figures.
func parseAndCheck(o repOptions, data []byte, wantTraces int, res *repResult) (figures, error) {
	d, err := dataset.Read(bytes.NewReader(data))
	if err != nil {
		return figures{}, err
	}
	if got := len(d.Traces); got != wantTraces {
		res.failf("short trace count: %d traces, plan has %d", got, wantTraces)
	}
	f := datasetFigures(d)
	checkPaperFigures(o, f, res)
	return f, nil
}
