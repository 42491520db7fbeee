package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/topology"
)

// The async job manager tracks every submitted campaign through one
// lifecycle — queued → running → done/failed: workers claim the job's
// shards from its lease table (leases.go) and the accepted result that
// completes the plan merges and files the run. A distributed job's
// workers are remote processes claiming over HTTP; a local job's are
// this process's loopback goroutines, making the same transitions by
// direct call. Three deduplication layers keep identical submissions
// from re-simulating:
//
//  1. store hit: the spec's cache key is already filed → a synthetic
//     done job serves the cached artifacts instantly;
//  2. in-flight join: an identical spec is queued or running → the
//     submission attaches to that job instead of queuing another;
//  3. post-run race: two runs of the same key that somehow both finish
//     file once (Store.Put keeps the first).
//
// All job state is guarded by mgr.mu; API handlers only ever see
// snapshot copies.

type job struct {
	id     string
	key    string
	spec   campaign.Spec // normalized
	state  apiclient.JobState
	cached bool
	err    string
	// pos is the job's index in mgr.order — the pagination cursor's
	// resume point.
	pos int

	submitted time.Time
	started   time.Time
	finished  time.Time

	shards      []apiclient.Shard
	shardsDone  int
	tracesTotal int
	tracesDone  int

	// The lease table (see leases.go), allocated when the job starts
	// running: leases and results parallel shards; finalizing latches
	// the result that completes the plan so exactly one caller runs the
	// merge.
	leases     []shardLease
	results    []heldResult
	finalizing bool
	// Shard-duration statistics (seconds) from accepted uploads: the
	// straggler detector's baseline. durEWMA is the smoothed typical
	// duration, durMax the slowest accepted shard, durCount the sample
	// count.
	durEWMA  float64
	durMax   float64
	durCount int
	// wal is the job's open write-ahead journal (journal.go); nil for
	// local and ended jobs. Appends are serialized by mgr.mu like the
	// state they shadow.
	wal *jobWAL
	// local is a local job's engine; nil for distributed and ended jobs.
	local *localRun
	// events is the job's event log, oldest first, appended under
	// mgr.mu with the state changes it records. Entries are never
	// rewritten, so a reader may keep the slice it read.
	events []apiclient.JobEvent
}

// distributed reports whether remote workers execute the job's shards.
// Everything the two executions differ by follows from it: who may claim,
// whether a journal is opened, when the job starts running, and whether
// its leases can lapse or be twinned.
func (j *job) distributed() bool { return j.spec.Execution == campaign.ExecutionDistributed }

// start moves a job to running at time at and gives it its lease table.
func (j *job) start(at time.Time) {
	j.state = apiclient.JobRunning
	j.started = at
	j.leases = make([]shardLease, len(j.shards))
	j.results = make([]heldResult, len(j.shards))
}

// resultHead is a shard result without its traces: what the accept
// path checks (checkResult) and the merge reads (the ShardHeader).
type resultHead struct {
	version      int
	specHash     string
	shard, slice int
	traces       int // how many traces the result carries
	campaign.ShardHeader
}

// heldResult is what a job keeps of an accepted shard until the merge,
// in one of two forms with one producer each. An upload (ingest.go) is
// kept as it arrived — the gzip'd body its journal record holds — and
// the merge splices its traces, which start tracesAt bytes into the
// inflated stream, straight into the store. A loopback result is kept
// decoded in wire and encoded at the merge.
type heldResult struct {
	resultHead
	body     []byte
	tracesAt int64
	wire     *campaign.ShardResultWire
}

// wireResult holds a loopback result.
func wireResult(w *campaign.ShardResultWire) heldResult {
	return heldResult{resultHead: resultHead{
		version: w.Version, specHash: w.SpecHash, shard: w.Shard, slice: w.Slice,
		traces: len(w.Traces), ShardHeader: w.Header(),
	}, wire: w}
}

// localRun is what a local job owns of the engine, as campaign.Run does
// for the length of a call: the blueprint, compiled once by the first
// grant (off mgr.mu), and min(spec workers, shards) executors — one
// world each — taken and returned per shard and dropped with the job.
type localRun struct {
	cfg     campaign.Config
	compile sync.Once // guards bp, err
	bp      *topology.Blueprint
	err     error
	// idle queues the executors between shards, nil standing for one
	// not yet made; guarded by mgr.mu.
	idle []*campaign.Executor
}

// execute runs granted shard c on ex — made first when nil, the
// blueprint compiled before that if no sibling has — and returns the
// executor with the result. Runs off mgr.mu.
func (r *localRun) execute(ex *campaign.Executor, c apiclient.ClaimedShard) (*campaign.Executor, *campaign.ShardResultWire, error) {
	if ex == nil {
		r.compile.Do(func() { r.bp, r.err = r.cfg.CompileBlueprint() })
		if r.err != nil {
			return nil, nil, r.err
		}
		ex = campaign.NewExecutor(r.cfg, r.bp)
	}
	wire, err := ex.Execute(c.Shard, c.Slice)
	return ex, wire, err
}

func (j *job) view() apiclient.Job {
	v := apiclient.Job{
		ID:          j.id,
		Key:         j.key,
		State:       j.state,
		Cached:      j.cached,
		Error:       j.err,
		Spec:        j.spec,
		Submitted:   j.submitted,
		ShardsTotal: len(j.shards),
		ShardsDone:  j.shardsDone,
		TracesTotal: j.tracesTotal,
		TracesDone:  j.tracesDone,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// maxQueuedJobs bounds the local jobs waiting for their first grant.
const maxQueuedJobs = 1024

// localWorker is the identity all loopback goroutines claim under: they
// live and die together, so nothing needs to tell them apart.
const localWorker = "local"

// maxOpenShards is the admission watermark over queued jobs plus
// running distributed shards. It is a constant until a measured knee
// of the coordinator's load curve sets it.
const maxOpenShards = 4096

type jobMgr struct {
	store  *Store
	met    *serverMetrics
	logger *slog.Logger

	// now is the manager's clock; tests inject a fake so lease expiry
	// is driven, never slept for. leaseTTL is the lifetime of granted
	// shard leases.
	now      func() time.Time
	leaseTTL time.Duration

	// watermark is the admission watermark, maxOpenShards unless a
	// test lowers it.
	watermark int

	// wal is the write-ahead journal directory for distributed jobs.
	wal *walDir
	// ingest recycles the scratch that request bodies, journal replay
	// and the merge read shard results through (ingest.go).
	ingest ingestPool

	mu     sync.Mutex
	jobs   map[string]*job
	order  []*job          // submission order, for listing
	active map[string]*job // cache key → queued/running job
	nextID int
	closed bool
	// aborted makes the loopback goroutines stop after the shard in hand
	// instead of finishing the open local jobs (Abort).
	aborted bool
	// draining rejects new submissions and claims with 503 unavailable
	// + Retry-After while in-flight shard uploads still land — the
	// graceful-shutdown window (BeginDrain).
	draining bool
	// The admission watermark's halves: distributed shards submitted
	// but not yet accepted, and local jobs not yet granted a shard.
	openShards int
	queued     int

	// local lists the local jobs with a pending shard, oldest first; the
	// loopback goroutines sleep on wake (Submit, stop) when none is
	// grantable.
	local     []*job
	wake      sync.Cond
	loopbacks int
	wg        sync.WaitGroup
}

// newJobMgr starts a manager with `loopbacks` loopback workers.
func newJobMgr(store *Store, loopbacks int, met *serverMetrics, logger *slog.Logger) *jobMgr {
	m := &jobMgr{
		store:     store,
		met:       met,
		logger:    logger,
		now:       time.Now,
		leaseTTL:  defaultLeaseTTL,
		watermark: maxOpenShards,
		jobs:      make(map[string]*job),
		active:    make(map[string]*job),
		loopbacks: loopbacks,
	}
	m.wake.L = &m.mu
	m.wg.Add(loopbacks)
	for w := 0; w < loopbacks; w++ {
		go m.loopback()
	}
	return m
}

// loopback is one in-process worker: it claims a shard straight from
// the lease table, executes it, and hands the in-memory result to the
// accept path an upload takes — no encode, no journal.
func (m *jobMgr) loopback() {
	defer m.wg.Done()
	for {
		j, run, ex, c := m.nextLocal()
		if j == nil {
			return
		}
		ex, wire, err := run.execute(ex, c)
		m.landLocal(j, run, ex, c, wire, err)
	}
}

// nextLocal blocks until it can grant a pending shard of the oldest
// local job with an executor free (nil: make one); a job's first grant
// starts it. A nil job means stop: aborted, or closed with nothing left
// to hand out.
func (m *jobMgr) nextLocal() (*job, *localRun, *campaign.Executor, apiclient.ClaimedShard) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.aborted {
		for n, j := range m.local {
			run := j.local
			if len(run.idle) == 0 {
				continue // all out; their holders come back for more
			}
			ex := run.idle[0]
			run.idle = run.idle[1:]
			if j.state == apiclient.JobQueued {
				m.queued--
				m.startLocked(j)
			}
			i := j.nextPending(0)
			if j.nextPending(i+1) < 0 {
				m.local = slices.Delete(m.local, n, n+1)
			}
			return j, run, ex, m.grantLocked(j, i, localWorker, m.now(), 1, false)
		}
		if m.closed {
			break
		}
		m.wake.Wait()
	}
	return nil, nil, nil, apiclient.ClaimedShard{}
}

// landLocal returns a loopback shard's executor and accepts its result;
// the one completing the plan finalizes the job, a failed one fails it.
// After Abort, or a sibling shard's failure, the outcome is dropped.
func (m *jobMgr) landLocal(j *job, run *localRun, ex *campaign.Executor, c apiclient.ClaimedShard, wire *campaign.ShardResultWire, err error) {
	m.mu.Lock()
	if m.aborted || j.state != apiclient.JobRunning {
		m.mu.Unlock()
		return
	}
	finalize := false
	if err == nil {
		run.idle = append(run.idle, ex)
		wire.SpecHash = j.key
		res := wireResult(wire)
		_, finalize, err = m.shardResultLocked(j, c.Index, localWorker, c.Lease, &res, nil)
	}
	m.mu.Unlock()
	if err != nil {
		m.failJob(j, err)
	} else if finalize {
		m.finalize(j)
	}
}

// Close stops accepting jobs, waits for the open local jobs to finish
// and closes the job journals.
func (m *jobMgr) Close() { m.stop(true) }

// Abort stops the manager the way a crash would, as far as one process
// can do that to itself: open local jobs are left unfinished (the shards
// in hand run out, every goroutine exits) and the job journals are
// closed as they stand — so the next coordinator on the same data dir
// recovers.
func (m *jobMgr) Abort() { m.stop(false) }

func (m *jobMgr) stop(clean bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.aborted = !clean
	m.wake.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.order {
		if j.wal != nil {
			j.wal.close()
			j.wal = nil
		}
	}
}

// BeginDrain enters the graceful-shutdown window: new submissions and
// HTTP shard claims are refused with 503 unavailable + Retry-After so
// workers back off, while local jobs run on and heartbeats and result
// uploads for existing leases keep landing (and being journaled). The
// caller stops accepting connections and Closes once the window lapses.
func (m *jobMgr) BeginDrain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
}

// drainRetryAfterSeconds is the back-off hint sent with drain-window
// rejections — long enough for a restart to come back, short enough
// that workers retry briskly.
const drainRetryAfterSeconds = 2

// walAppend frames one record into a job's journal, counting journal
// traffic. A nil j.wal (local job) is a no-op.
// Callers hold m.mu.
func (m *jobMgr) walAppend(j *job, rec walRecord) error {
	if j.wal == nil {
		return nil
	}
	r := rec // the copy escapes; a journal-less job's record stays on the stack
	n, err := j.wal.append(&r)
	if err != nil {
		return err
	}
	m.met.journalRecords.Inc()
	m.met.journalBytes.Add(uint64(n))
	return nil
}

// walSync makes a job's appended records durable; one call per
// acknowledged response. Callers hold m.mu.
func (m *jobMgr) walSync(j *job) error {
	if j.wal == nil {
		return nil
	}
	if err := j.wal.sync(); err != nil {
		return err
	}
	m.met.journalSyncs.Inc()
	return nil
}

// Submit registers a validated spec and returns the job serving it —
// a fresh queued job (created=true), the in-flight job for an
// identical spec, or a synthetic done job for a store hit (both
// created=false).
func (m *jobMgr) Submit(spec campaign.Spec) (view apiclient.Job, created bool, err error) {
	key, err := spec.CacheKey()
	if err != nil {
		return apiclient.Job{}, false, err
	}
	norm := spec.Normalized()
	cfg, err := norm.Config()
	if err != nil {
		return apiclient.Job{}, false, err
	}
	plan := cfg.Shards()
	if len(plan) == 0 {
		return apiclient.Job{}, false, &campaign.ValidationError{Fields: []campaign.FieldError{
			{Field: "trace_plan", Msg: "plan selects no vantages"},
		}}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return apiclient.Job{}, false, faultf(503, apiclient.CodeUnavailable, "server: job manager is shut down")
	}
	if m.draining {
		return apiclient.Job{}, false, faultRetryf(503, apiclient.CodeUnavailable, drainRetryAfterSeconds,
			"server: draining for shutdown; resubmit shortly")
	}
	m.met.jobsSubmitted.Inc()

	if j, ok := m.active[key]; ok {
		m.met.jobsJoined.Inc()
		j.log(m.now(), apiclient.EventJoined, nil, "")
		return j.view(), false, nil
	}
	if m.store.Has(key) {
		m.met.storeHits.Inc()
		j := m.newJobLocked("", key, norm, plan)
		j.cached = true
		j.finish(m.now())
		j.log(m.now(), apiclient.EventCacheHit, nil, "")
		return j.view(), false, nil
	}
	m.met.storeMisses.Inc()

	// Admission watermark — PCN-style early shedding: refuse new work
	// with 429 + Retry-After while the backlog (queued jobs plus
	// distributed shards not yet accepted) is past the high-water mark,
	// instead of queueing until a hard queue_full. Joins and cache hits
	// were served above — they add no load and are never shed.
	if load := m.queued + m.openShards; load >= m.watermark {
		m.met.submitShed.Inc()
		return apiclient.Job{}, false, faultRetryf(http.StatusTooManyRequests, apiclient.CodeOverloaded,
			drainRetryAfterSeconds,
			"server: %d jobs/shards already open (watermark %d); resubmit shortly",
			load, m.watermark)
	}
	distributed := norm.Execution == campaign.ExecutionDistributed
	if !distributed && m.queued >= maxQueuedJobs {
		return apiclient.Job{}, false, faultf(503, apiclient.CodeQueueFull, "server: job queue full (%d queued)", maxQueuedJobs)
	}

	j := m.newJobLocked("", key, norm, plan)
	// Room for the planned events — queued, running, a leased/done pair
	// a shard, done — so the shard paths append without allocating.
	j.events = make([]apiclient.JobEvent, 0, 3+2*len(plan))
	if distributed {
		// Durability before acceptance: the submission record (canonical
		// spec + key — everything recovery needs to rebuild the plan) is
		// fsync'd before the 202 goes out. If the journal cannot take it,
		// the job is refused — better than accepting work the coordinator
		// cannot promise to survive.
		if err := m.openJobWALLocked(j); err != nil {
			delete(m.jobs, j.id)
			m.order = m.order[:len(m.order)-1]
			return apiclient.Job{}, false, faultf(500, apiclient.CodeInternal, "%v", err)
		}
	}
	m.active[key] = j
	j.log(m.now(), apiclient.EventQueued, nil, "")
	if distributed {
		// Running the moment it exists — workers look for running jobs.
		m.openShards += len(j.shards)
		m.startLocked(j)
		return j.view(), true, nil
	}
	// A local job stays queued until its first grant.
	if cfg.Workers <= 0 {
		cfg.Workers = m.loopbacks
	}
	cfg.Metrics = m.met.campaign
	j.local = &localRun{cfg: cfg, idle: make([]*campaign.Executor, min(cfg.Workers, len(plan)))}
	m.queued++
	m.local = append(m.local, j)
	m.wake.Broadcast()
	return j.view(), true, nil
}

// newJobLocked allocates and registers a queued job, every shard
// pending; an empty id mints the next one. Callers hold m.mu.
func (m *jobMgr) newJobLocked(id, key string, spec campaign.Spec, plan []campaign.ShardInfo) *job {
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("j-%06d", m.nextID)
	}
	j := &job{
		id:        id,
		key:       key,
		spec:      spec,
		state:     apiclient.JobQueued,
		pos:       len(m.order),
		submitted: m.now(),
		shards:    make([]apiclient.Shard, len(plan)),
	}
	for i, sh := range plan {
		j.shards[i] = apiclient.Shard{ShardInfo: sh, State: apiclient.ShardPending}
		j.tracesTotal += sh.Traces
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	return j
}

// log appends one event to j's log: a job-level event (sh nil) or shard
// sh's. Callers hold mgr.mu.
func (j *job) log(at time.Time, kind string, sh *apiclient.Shard, detail string) {
	ev := apiclient.JobEvent{Seq: len(j.events), Time: at, Kind: kind, Job: j.id,
		Shard: -1, Slice: -1, Detail: detail}
	if sh != nil {
		ev.Shard, ev.Slice = sh.Shard, sh.Slice
	}
	j.events = append(j.events, ev)
}

// startLocked moves a job to running; callers hold m.mu.
func (m *jobMgr) startLocked(j *job) {
	j.start(m.now())
	m.met.jobsStarted.Inc()
	m.met.jobsRunning.Add(1)
	j.log(m.now(), apiclient.EventRunning, nil, "")
	m.logger.Info("job start", "job", j.id, "key", j.key[:12], "execution", j.spec.Execution)
}

// finish marks a job whose run is already in the store — a cache hit,
// or one recovery found filed — done at time at, every shard complete.
func (j *job) finish(at time.Time) {
	j.state = apiclient.JobDone
	j.finished = at
	j.results = nil
	for i := range j.shards {
		j.shards[i].State = apiclient.ShardDone
	}
	j.shardsDone = len(j.shards)
	j.tracesDone = j.tracesTotal
}

// openJobWALLocked creates a distributed job's journal and makes its
// submission record durable. Callers hold m.mu.
func (m *jobMgr) openJobWALLocked(j *job) error {
	specBytes, err := j.spec.Canonical()
	if err != nil {
		return fmt.Errorf("server: journal: canonical spec: %w", err)
	}
	w, err := m.wal.create(j.id)
	if err != nil {
		return err
	}
	j.wal = w
	if err := m.walAppend(j, walRecord{
		Type: walSubmit, Job: j.id, Key: j.key, Spec: specBytes, Time: m.now(),
	}); err == nil {
		err = m.walSync(j)
	}
	if err != nil {
		j.wal.close()
		j.wal = nil
		_ = m.wal.remove(j.id)
		return err
	}
	return nil
}

// failJob marks a running job failed and releases its dedup slot; the
// first failure wins (two shards of a local job can fail at once).
func (m *jobMgr) failJob(j *job, err error) {
	m.mu.Lock()
	if j.state != apiclient.JobRunning {
		m.mu.Unlock()
		return
	}
	j.state = apiclient.JobFailed
	j.err = err.Error()
	j.finished = m.now()
	delete(m.active, j.key)
	if j.distributed() {
		// Release the failed job's unaccepted shards from the admission
		// watermark.
		if open := len(j.shards) - j.shardsDone; open > 0 && m.openShards >= open {
			m.openShards -= open
		}
	} else {
		j.local = nil
		m.local = slices.DeleteFunc(m.local, func(o *job) bool { return o == j })
	}
	if j.wal != nil {
		// The failure is terminal state worth surviving a restart: the
		// journal keeps its file with a failed record so recovery
		// re-surfaces the failure instead of re-running a poisoned merge.
		if werr := m.walAppend(j, walRecord{Type: walFailed, Error: j.err, Time: m.now()}); werr == nil {
			_ = m.walSync(j)
		}
		j.wal.close()
		j.wal = nil
	}
	j.log(m.now(), apiclient.EventFailed, nil, j.err)
	m.mu.Unlock()
	m.met.jobsFailed.Inc()
	m.met.jobsRunning.Add(-1)
	m.logger.Error("job failed", "job", j.id, "error", err)
}

// fileRun files a completed job's artifacts into the content-addressed
// store: the run report from res (MergeHeaders of the shards' headers),
// the dataset from the held results. Returns the dataset size.
func (m *jobMgr) fileRun(j *job, res *campaign.Result, wall time.Duration) (int64, error) {
	specBytes, err := j.spec.Canonical()
	if err != nil {
		return 0, err
	}
	meta := apiclient.Report{
		Key:                j.key,
		Spec:               j.spec,
		Traces:             j.tracesTotal,
		Servers:            len(res.Servers),
		Shards:             len(res.Shards),
		Events:             res.Events,
		PhantomEvents:      res.PhantomEvents,
		ReplayedBoundaries: res.ReplayedBoundaries,
		WallSeconds:        wall.Seconds(),
		CompletedAt:        m.now().UTC(),
	}
	if len(res.Congestion) > 0 {
		rep := analysis.ComputeCEMarkReport(res.Congestion)
		meta.Congestion = &rep
	}
	// The dataset streams a chunk of trace lines at a time into the
	// store's temp file; Put hashes and sizes it on the way through.
	n, err := m.store.Put(j.key, specBytes, meta, func(w io.Writer) error {
		return m.writeDataset(w, j.results)
	})
	if err != nil {
		return 0, err
	}
	m.met.storeBytesWritten.Add(uint64(n))
	return n, nil
}

// writeDataset streams the merged dataset into w: every shard's traces
// in plan order, renumbered campaign-wide — dataset.Merge's order and
// numbering — through one Encoder. A held upload's traces are spliced
// from its body, inflated a window at a time, with only the index
// digits rewritten; a decoded result's are encoded. So the merge holds
// a chunk and a trace, never a shard's decoded traces, and writes
// exactly the bytes dataset.Write of the merged dataset would.
func (m *jobMgr) writeDataset(w io.Writer, results []heldResult) error {
	e := dataset.NewEncoder(w)
	var scratch *ingestBuf
	defer func() {
		if scratch != nil {
			m.ingest.put(scratch)
		}
	}()
	index := 0
	for i := range results {
		r := &results[i]
		if r.wire != nil {
			for _, t := range r.wire.Traces {
				t.Index = index
				e.Trace(&t)
				e.Raw("\n")
				index++
			}
			continue
		}
		if scratch == nil {
			scratch = m.ingest.get()
		}
		s, err := scratch.heldTraces(r)
		if err != nil {
			return err
		}
		for k := 0; k < r.traces; k++ {
			trace, ok := s.AcceptedTrace()
			if !ok || (k+1 < r.traces && !s.Lit(",")) {
				return fmt.Errorf("server: merge: held result of shard (%d,%d) no longer scans at trace %d", r.shard, r.slice, k)
			}
			e.Splice(trace, index)
			e.Raw("\n")
			index++
		}
	}
	return e.Flush()
}

// Health reports the local jobs waiting for their first grant and
// whether the drain window is open (healthz).
func (m *jobMgr) Health() (queued int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.draining
}

// Get returns a snapshot of the identified job.
func (m *jobMgr) Get(id string) (apiclient.Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return apiclient.Job{}, false
	}
	return j.view(), true
}

// Page returns up to limit job snapshots in submission order, starting
// strictly after the cursor job (all jobs when cursor is empty),
// optionally filtered by state. The returned cursor is non-empty iff
// more matching jobs follow; feed it back to resume.
func (m *jobMgr) Page(cursor string, limit int, state apiclient.JobState) ([]apiclient.Job, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := 0
	if cursor != "" {
		j, ok := m.jobs[cursor]
		if !ok {
			return nil, "", faultf(400, apiclient.CodeCursorInvalid, "unknown cursor %q", cursor)
		}
		start = j.pos + 1
	}
	views := []apiclient.Job{}
	next := ""
	for i := start; i < len(m.order); i++ {
		j := m.order[i]
		if state != "" && j.state != state {
			continue
		}
		if len(views) == limit {
			next = views[len(views)-1].ID
			break
		}
		views = append(views, j.view())
	}
	return views, next, nil
}

// Shards returns a job's per-(vantage, slice) completion snapshot.
func (m *jobMgr) Shards(id string) ([]apiclient.Shard, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	out := make([]apiclient.Shard, len(j.shards))
	copy(out, j.shards)
	return out, true
}

// Events returns one job's event log with its state, read under one
// lock: the state is the one the log's last event leads to.
func (m *jobMgr) Events(id string) (apiclient.JobEvents, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return apiclient.JobEvents{}, false
	}
	return apiclient.JobEvents{Events: j.events, ID: j.id, State: j.state}, true
}
