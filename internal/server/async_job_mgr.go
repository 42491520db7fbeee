package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// The async job manager runs submitted campaigns on a bounded pool of
// worker goroutines and tracks each through the queued → running →
// done/failed lifecycle. Three deduplication layers keep identical
// submissions from re-simulating:
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

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ShardProgress is one (vantage, slice) shard's completion state
// within a job. In-process shards move pending → running → done;
// distributed shards move pending → leased → done (with evictions
// looping leased back to pending — see leases.go).
type ShardProgress struct {
	campaign.ShardInfo
	State string `json:"state"` // pending | running | leased | done
	// Worker is the worker holding (or having completed) a distributed
	// shard; empty for in-process execution.
	Worker string `json:"worker,omitempty"`
	// Execution stats, populated when the shard completes.
	Events         uint64  `json:"events,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// JobView is the API-facing snapshot of a job.
type JobView struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Cached marks a submission served entirely from the store, without
	// queuing a run.
	Cached bool          `json:"cached"`
	Error  string        `json:"error,omitempty"`
	Spec   campaign.Spec `json:"spec"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Progress counters, fed by the campaign engine's ShardStart/
	// ShardDone hooks.
	ShardsTotal int `json:"shards_total"`
	ShardsDone  int `json:"shards_done"`
	TracesTotal int `json:"traces_total"`
	TracesDone  int `json:"traces_done"`
}

type job struct {
	id     string
	key    string
	spec   campaign.Spec // normalized
	state  JobState
	cached bool
	err    string
	// pos is the job's index in mgr.order — the pagination cursor's
	// resume point.
	pos int

	submitted time.Time
	started   time.Time
	finished  time.Time

	shards      []ShardProgress
	shardsDone  int
	tracesTotal int
	tracesDone  int

	// Distributed execution state (see leases.go): leases and wires
	// parallel shards; finalizing latches the upload that completes the
	// plan so exactly one caller runs the merge.
	execution  string
	leases     []shardLease
	wires      []*campaign.ShardResultWire
	finalizing bool
	// Shard-duration statistics (seconds) from accepted uploads: the
	// straggler detector's baseline and the adaptive claim sizer's
	// input. durEWMA is the smoothed typical duration, durMax the
	// slowest accepted shard, durCount the sample count.
	durEWMA  float64
	durMax   float64
	durCount int
	// wal is the job's open write-ahead journal (journal.go); nil for
	// in-process jobs and when journaling is disabled. Appends are
	// serialized by mgr.mu like the state they shadow.
	wal *jobWAL
}

func (j *job) view() JobView {
	v := JobView{
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

const maxQueuedJobs = 1024

// defaultMaxOpenShards is the admission watermark over queued jobs plus
// running distributed shards; Config.MaxOpenShards overrides.
const defaultMaxOpenShards = 4096

type jobMgr struct {
	store  *Store
	met    *serverMetrics
	logger *slog.Logger

	// now is the manager's clock; tests inject a fake so lease expiry
	// is driven, never slept for. leaseTTL is the lifetime of granted
	// shard leases.
	now      func() time.Time
	leaseTTL time.Duration

	// Self-healing tunables (see leases.go, workers.go): speculateAfter
	// is the straggler multiple (≤0 disables speculation), quarThreshold
	// the scoreboard strike limit (≤0 disables quarantine), and
	// maxOpenShards the admission watermark over queue depth + running
	// distributed shards (≤0 disables shedding).
	speculateAfter float64
	quarThreshold  int
	maxOpenShards  int

	// wal is the write-ahead journal directory for distributed jobs;
	// nil disables journaling (Config.DisableJournal, and benchmarks
	// that want the no-durability baseline).
	wal *walDir

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job          // submission order, for listing
	active  map[string]*job // cache key → queued/running job
	nextID  int
	running int
	closed  bool
	// aborted makes the run goroutines drop what is still queued instead
	// of draining it (Abort); they read it off the lock.
	aborted atomic.Bool
	// draining rejects new submissions and claims with 503 unavailable
	// + Retry-After while in-flight shard uploads still land — the
	// graceful-shutdown window (BeginDrain).
	draining bool
	// workerNames interns worker IDs so event-ring appends can carry a
	// heap-stable *string without allocating per event.
	workerNames map[string]*string
	// workers is the health scoreboard (workers.go), keyed by worker ID.
	workers map[string]*workerHealth
	// openShards counts distributed shards submitted but not yet
	// accepted — the admission watermark's running half.
	openShards int

	queue chan *job
	wg    sync.WaitGroup
}

// newJobMgr starts a manager draining its queue with `workers`
// concurrent campaign runs.
func newJobMgr(store *Store, workers int, met *serverMetrics, logger *slog.Logger) *jobMgr {
	if workers < 1 {
		workers = 1
	}
	m := &jobMgr{
		store:          store,
		met:            met,
		logger:         logger,
		now:            time.Now,
		leaseTTL:       defaultLeaseTTL,
		speculateAfter: defaultSpeculateAfter,
		quarThreshold:  defaultQuarantineThreshold,
		maxOpenShards:  defaultMaxOpenShards,
		jobs:           make(map[string]*job),
		active:         make(map[string]*job),
		workerNames:    make(map[string]*string),
		workers:        make(map[string]*workerHealth),
		queue:          make(chan *job, maxQueuedJobs),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				if !m.aborted.Load() {
					m.runJob(j)
				}
			}
		}()
	}
	return m
}

// Close stops accepting jobs and waits for in-flight runs to finish,
// then journals a clean-shutdown marker: the next startup knows this
// process exited deliberately rather than crashed.
func (m *jobMgr) Close() { m.stop(true) }

// Abort stops the manager the way a crash would, as far as one process
// can do that to itself: queued jobs are dropped, the run in flight
// finishes, every goroutine exits, the job journals are closed as they
// stand and no clean-shutdown marker is written — so the next
// coordinator on the same data dir recovers.
func (m *jobMgr) Abort() { m.stop(false) }

func (m *jobMgr) stop(clean bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.aborted.Store(!clean)
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.order {
		if j.wal != nil {
			j.wal.close()
			j.wal = nil
		}
	}
	if clean && m.wal != nil {
		if err := m.wal.markCleanShutdown(m.now()); err != nil {
			m.logger.Error("clean-shutdown marker", "error", err)
		}
	}
}

// BeginDrain enters the graceful-shutdown window: new submissions and
// shard claims are refused with 503 unavailable + Retry-After so
// workers back off, while heartbeats and in-flight result uploads for
// existing leases keep landing (and keep being journaled). The caller
// stops accepting connections and Closes once the window lapses.
func (m *jobMgr) BeginDrain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
}

// Draining reports whether the drain window is open (healthz).
func (m *jobMgr) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// drainRetryAfterSeconds is the back-off hint sent with drain-window
// rejections — long enough for a restart to come back, short enough
// that workers retry briskly.
const drainRetryAfterSeconds = 2

// walAppend frames one record into a job's journal, counting journal
// traffic. A nil j.wal (in-process job, journaling disabled) is a
// no-op. Callers hold m.mu.
func (m *jobMgr) walAppend(j *job, rec *walRecord) error {
	if j.wal == nil {
		return nil
	}
	n, err := j.wal.append(rec)
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
func (m *jobMgr) Submit(spec campaign.Spec) (view JobView, created bool, err error) {
	key, err := spec.CacheKey()
	if err != nil {
		return JobView{}, false, err
	}
	norm := spec.Normalized()
	cfg, err := norm.Config()
	if err != nil {
		return JobView{}, false, err
	}
	plan := cfg.Shards()
	if len(plan) == 0 {
		return JobView{}, false, &campaign.ValidationError{Fields: []campaign.FieldError{
			{Field: "trace_plan", Msg: "plan selects no vantages"},
		}}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, false, faultf(503, codeUnavailable, "server: job manager is shut down")
	}
	if m.draining {
		return JobView{}, false, faultRetryf(503, codeUnavailable, drainRetryAfterSeconds,
			"server: draining for shutdown; resubmit shortly")
	}
	m.met.jobsSubmitted.Inc()

	if j, ok := m.active[key]; ok {
		m.met.jobsJoined.Inc()
		m.met.events.Append(telemetry.EventJobJoined, &j.id, nil, -1, -1)
		return j.view(), false, nil
	}
	if m.store.Has(key) {
		m.met.storeHits.Inc()
		j := m.newJobLocked(key, norm, plan)
		j.state = JobDone
		j.cached = true
		j.finished = m.now()
		for i := range j.shards {
			j.shards[i].State = "done"
		}
		j.shardsDone = len(j.shards)
		j.tracesDone = j.tracesTotal
		m.met.events.Append(telemetry.EventJobCacheHit, &j.id, nil, -1, -1)
		return j.view(), false, nil
	}
	m.met.storeMisses.Inc()

	// Admission watermark — PCN-style early shedding: refuse new work
	// with 429 + Retry-After while the backlog (queued jobs plus
	// distributed shards not yet accepted) is past the high-water mark,
	// instead of queueing until a hard queue_full. Joins and cache hits
	// were served above — they add no load and are never shed.
	if m.maxOpenShards > 0 {
		if load := len(m.queue) + m.openShards; load >= m.maxOpenShards {
			m.met.submitShed.Inc()
			return JobView{}, false, faultRetryf(http.StatusTooManyRequests, codeOverloaded,
				drainRetryAfterSeconds,
				"server: %d jobs/shards already open (watermark %d); resubmit shortly",
				load, m.maxOpenShards)
		}
	}

	j := m.newJobLocked(key, norm, plan)
	if norm.Execution == campaign.ExecutionDistributed {
		// Distributed jobs never enter the local run queue: they are
		// "running" the moment they exist, and their shards sit pending
		// until workers claim them over the API.
		j.execution = campaign.ExecutionDistributed
		j.state = JobRunning
		j.started = m.now()
		j.leases = make([]shardLease, len(j.shards))
		j.wires = make([]*campaign.ShardResultWire, len(j.shards))
		// Durability before acceptance: the submission record (canonical
		// spec + key — everything recovery needs to rebuild the plan) is
		// fsync'd before the 202 goes out. If the journal cannot take it,
		// the job is refused — better than accepting work the coordinator
		// cannot promise to survive.
		if err := m.openJobWALLocked(j); err != nil {
			delete(m.jobs, j.id)
			m.order = m.order[:len(m.order)-1]
			return JobView{}, false, faultf(500, codeInternal, "%v", err)
		}
		m.active[key] = j
		m.openShards += len(j.shards)
		m.met.jobsStarted.Inc()
		m.met.jobsRunning.Add(1)
		m.met.events.Append(telemetry.EventJobQueued, &j.id, nil, -1, -1)
		m.met.events.Append(telemetry.EventJobRunning, &j.id, nil, -1, -1)
		return j.view(), true, nil
	}
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		return JobView{}, false, faultf(503, codeQueueFull, "server: job queue full (%d queued)", maxQueuedJobs)
	}
	m.active[key] = j
	m.met.events.Append(telemetry.EventJobQueued, &j.id, nil, -1, -1)
	return j.view(), true, nil
}

// newJobLocked allocates and registers a job; callers hold m.mu.
func (m *jobMgr) newJobLocked(key string, spec campaign.Spec, plan []campaign.ShardInfo) *job {
	m.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", m.nextID),
		key:       key,
		spec:      spec,
		state:     JobQueued,
		pos:       len(m.order),
		submitted: m.now(),
		shards:    make([]ShardProgress, len(plan)),
	}
	for i, sh := range plan {
		j.shards[i] = ShardProgress{ShardInfo: sh, State: "pending"}
		j.tracesTotal += sh.Traces
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	return j
}

// openJobWALLocked creates a distributed job's journal and makes its
// submission record durable. A nil m.wal (journaling disabled) is a
// no-op. Callers hold m.mu.
func (m *jobMgr) openJobWALLocked(j *job) error {
	if m.wal == nil {
		return nil
	}
	specBytes, err := j.spec.Canonical()
	if err != nil {
		return fmt.Errorf("server: journal: canonical spec: %w", err)
	}
	w, err := m.wal.create(j.id)
	if err != nil {
		return err
	}
	j.wal = w
	if err := m.walAppend(j, &walRecord{
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

// failJob marks a job failed and releases its dedup slot. pool is true
// when the job occupied a local run-queue worker (in-process
// execution); distributed jobs never did.
func (m *jobMgr) failJob(j *job, err error, pool bool) {
	m.mu.Lock()
	j.state = JobFailed
	j.err = err.Error()
	j.finished = m.now()
	delete(m.active, j.key)
	if pool {
		m.running--
	}
	if j.execution == campaign.ExecutionDistributed {
		// Release the failed job's unaccepted shards from the admission
		// watermark.
		if open := len(j.shards) - j.shardsDone; open > 0 && m.openShards >= open {
			m.openShards -= open
		}
	}
	if j.wal != nil {
		// The failure is terminal state worth surviving a restart: the
		// journal keeps its file with a failed record so recovery
		// re-surfaces the failure instead of re-running a poisoned merge.
		if werr := m.walAppend(j, &walRecord{Type: walFailed, Error: j.err, Time: m.now()}); werr == nil {
			_ = m.walSync(j)
		}
		j.wal.close()
		j.wal = nil
	}
	m.mu.Unlock()
	m.met.jobsFailed.Inc()
	m.met.jobsRunning.Add(-1)
	m.met.events.Append(telemetry.EventJobFailed, &j.id, &j.err, -1, -1)
	m.logger.Error("job failed", "job", j.id, "error", err)
}

// fileRun serializes and files a completed campaign's artifacts into
// the content-addressed store — the single path shared by in-process
// runs and distributed merges, so both produce identical RunMeta and
// identical dataset bytes. Returns the dataset size.
func (m *jobMgr) fileRun(j *job, res *campaign.Result, wall time.Duration) (int64, error) {
	specBytes, err := j.spec.Canonical()
	if err != nil {
		return 0, err
	}
	meta := RunMeta{
		Key:                j.key,
		Spec:               j.spec,
		Traces:             len(res.Dataset.Traces),
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
		return dataset.Write(w, res.Dataset)
	})
	if err != nil {
		return 0, err
	}
	m.met.storeBytesWritten.Add(uint64(n))
	return n, nil
}

// runJob executes one queued campaign on a worker goroutine.
func (m *jobMgr) runJob(j *job) {
	m.mu.Lock()
	j.state = JobRunning
	j.started = m.now()
	m.running++
	m.mu.Unlock()
	m.met.jobsStarted.Inc()
	m.met.jobsRunning.Add(1)
	m.met.events.Append(telemetry.EventJobRunning, &j.id, nil, -1, -1)
	m.logger.Info("job start", "job", j.id, "key", j.key[:12])

	fail := func(err error) { m.failJob(j, err, true) }

	cfg, err := j.spec.Config()
	if err != nil {
		fail(err)
		return
	}
	cfg.Metrics = m.met.campaign
	cfg.ShardStart = func(shard, slice int, vantage string) {
		m.setShardState(j, shard, slice, "running", nil)
	}
	cfg.ShardDone = func(stats campaign.ShardStats) {
		m.setShardState(j, stats.Shard, stats.Slice, "done", &stats)
	}

	start := m.now()
	res, err := campaign.Run(cfg)
	if err != nil {
		fail(err)
		return
	}
	wall := m.now().Sub(start)

	n, err := m.fileRun(j, res, wall)
	if err != nil {
		fail(err)
		return
	}

	m.mu.Lock()
	j.state = JobDone
	j.finished = m.now()
	delete(m.active, j.key)
	m.running--
	m.mu.Unlock()
	m.met.jobsDone.Inc()
	m.met.jobsRunning.Add(-1)
	m.met.events.Append(telemetry.EventJobDone, &j.id, nil, -1, -1)
	m.logger.Info("job done", "job", j.id, "key", j.key[:12],
		"traces", len(res.Dataset.Traces), "dataset_bytes", n, "wall_seconds", wall.Seconds())
}

// setShardState updates one (vantage-index, slice) shard's progress
// and records the transition. The event's job and detail pointers
// are &j.id and &sh.Vantage: both are heap-stable for the job's
// lifetime (a job's shards slice is allocated once and never grows).
func (m *jobMgr) setShardState(j *job, shard, slice int, state string, stats *campaign.ShardStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range j.shards {
		sh := &j.shards[i]
		if sh.Shard != shard || sh.Slice != slice {
			continue
		}
		sh.State = state
		kind := telemetry.EventShardStart
		if stats != nil {
			kind = telemetry.EventShardDone
			sh.Events = stats.Events
			sh.ElapsedSeconds = stats.Elapsed.Seconds()
			j.shardsDone++
			j.tracesDone += stats.Traces
		}
		m.met.events.Append(kind, &j.id, &sh.Vantage, int32(shard), int32(slice))
		return
	}
}

// QueueDepth reports the number of jobs waiting for a worker.
func (m *jobMgr) QueueDepth() int { return len(m.queue) }

// Running reports the number of campaigns currently executing.
func (m *jobMgr) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Get returns a snapshot of the identified job.
func (m *jobMgr) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns snapshots of every job in submission order.
func (m *jobMgr) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]JobView, len(m.order))
	for i, j := range m.order {
		views[i] = j.view()
	}
	return views
}

// Page returns up to limit job snapshots in submission order, starting
// strictly after the cursor job (all jobs when cursor is empty),
// optionally filtered by state. The returned cursor is non-empty iff
// more matching jobs follow; feed it back to resume.
func (m *jobMgr) Page(cursor string, limit int, state JobState) ([]JobView, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := 0
	if cursor != "" {
		j, ok := m.jobs[cursor]
		if !ok {
			return nil, "", faultf(400, codeCursorInvalid, "unknown cursor %q", cursor)
		}
		start = j.pos + 1
	}
	views := []JobView{}
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
func (m *jobMgr) Shards(id string) ([]ShardProgress, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	out := make([]ShardProgress, len(j.shards))
	copy(out, j.shards)
	return out, true
}
