// Package worker implements the distributed shard executor: a loop
// that discovers running distributed jobs on a coordinator, leases
// batches of (vantage, slice) shards over the v1 API, executes them
// with the local campaign engine against a locally compiled blueprint,
// and streams results back under heartbeat-extended leases.
//
// A worker holds no durable state. Everything it needs arrives in the
// claim response — the canonical spec (compile the same frozen
// blueprint any other machine would) and the job's spec hash (stamp
// uploads for the coordinator's poison guard) — so a worker that
// crashes is replaced by any other worker re-claiming its lapsed
// leases, and determinism guarantees the replacement uploads the same
// bytes the original would have.
package worker

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
)

// Config parameterizes one worker run.
type Config struct {
	// Client speaks to the coordinator.
	Client *apiclient.Client
	// ID names this worker in leases, metrics and journal events.
	ID string
	// Batch bounds shards claimed per request. Zero means 2.
	Batch int
	// Poll is the idle re-scan interval. Zero means 500ms.
	Poll time.Duration
	// Jobs restricts the worker to explicit job IDs; empty discovers
	// running distributed jobs from the listing.
	Jobs []string
	// ExitWhenIdle returns from Run once a scan finds no distributed
	// work anywhere, instead of polling forever.
	ExitWhenIdle bool
	// ExitAfterResults, when positive, abandons the run the moment that
	// many uploads have been accepted — without finishing or releasing
	// the rest of the claimed batch. It exists to exercise the
	// crash/lease-expiry path in tests and the distributed-smoke job.
	ExitAfterResults int
	// WedgeAfterClaim turns the worker into a deliberate straggler: it
	// claims batches and heartbeats its leases forever without ever
	// executing or uploading — the pathology straggler speculation and
	// the quarantine scoreboard exist to beat. Chaos-smoke only.
	WedgeAfterClaim bool
	// Logger receives per-shard progress. Nil discards.
	Logger *slog.Logger

	// Resilience knobs (retry.go). MaxRetries bounds transparent
	// retries of each transient failure (zero means 8); RetryBase and
	// RetryCap shape the capped exponential backoff (zero means
	// 100ms/5s); RequestTimeout bounds each coordinator request so a
	// hung connection becomes a retryable error (zero means no
	// per-request bound beyond the caller's context).
	MaxRetries     int
	RetryBase      time.Duration
	RetryCap       time.Duration
	RequestTimeout time.Duration
}

// Stats summarizes one worker run.
type Stats struct {
	Claims    int `json:"claims"`
	Executed  int `json:"executed"`
	Accepted  int `json:"accepted"`
	Duplicate int `json:"duplicate"`
	// Rejected counts uploads the coordinator refused (stale_result,
	// lease_expired) — work lost to eviction, not an error.
	Rejected int `json:"rejected"`
	// Retries counts transient failures absorbed by backoff-and-retry;
	// the crash-smoke CI job asserts workers rode through the
	// coordinator restart by this being non-zero.
	Retries int `json:"retries"`
	// Abandoned counts shards executed but never uploaded because the
	// lease died under them (heartbeat loss) — uploading on a dead
	// lease would only be rejected as stale.
	Abandoned int `json:"abandoned"`
	// Quarantined counts claims the coordinator refused with 429
	// worker_quarantined — this worker is benched and backing off.
	Quarantined int `json:"quarantined"`
}

// errExitAfterResults signals the deliberate mid-run abandonment that
// ExitAfterResults requests.
var errExitAfterResults = fmt.Errorf("worker: exit-after-results reached")

// compiledJob caches the per-spec-hash execution state: one compiled
// blueprint and one executor — which instantiates its world on the
// first shard and resets it for every later one — serve every shard of
// the job. job is the job the entry last executed for; the cache drops
// an entry once that job has left the discovery scan (evictIdle).
type compiledJob struct {
	ex  *campaign.Executor
	job string
}

// Run executes the worker loop until ctx is canceled, the coordinator
// has no more distributed work (with ExitWhenIdle), or
// ExitAfterResults fires. The returned stats count this run only.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.Client == nil {
		return Stats{}, fmt.Errorf("worker: no coordinator client")
	}
	if cfg.ID == "" {
		return Stats{}, fmt.Errorf("worker: ID is required")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 2
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.RequestTimeout > 0 {
		cfg.Client = cfg.Client.WithTimeout(cfg.RequestTimeout)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	var stats Stats
	compiled := make(map[string]*compiledJob)
	for {
		worked, err := scanOnce(ctx, cfg, logger, compiled, &stats)
		if err == errExitAfterResults {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		if !worked {
			if cfg.ExitWhenIdle {
				return stats, nil
			}
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(cfg.Poll):
			}
			continue
		}
		// Claimed and executed something: immediately scan again; more
		// shards are likely pending.
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		default:
		}
	}
}

// scanOnce is one pass of the worker loop: discover the jobs to work
// on, drop compiled state for jobs that have left the scan, then claim
// and execute one batch per job. It reports whether any shard was
// leased to this worker.
func scanOnce(ctx context.Context, cfg Config, logger *slog.Logger, compiled map[string]*compiledJob, stats *Stats) (bool, error) {
	var jobs []string
	err := retry(ctx, cfg, logger, stats, "discover", func() error {
		var derr error
		jobs, derr = discoverJobs(ctx, cfg)
		return derr
	})
	if err != nil {
		return false, err
	}
	evictIdle(compiled, jobs)
	worked := false
	for _, jobID := range jobs {
		n, err := workJob(ctx, cfg, logger, jobID, compiled, stats)
		if err != nil {
			return worked, err
		}
		worked = worked || n > 0
	}
	return worked, nil
}

// evictIdle drops every compiled entry whose job is not in the latest
// scan. A blueprint holds an O(routers²) route table and its executor a
// warmed world; a worker that kept one per job it ever served would
// grow without bound. An explicit Config.Jobs list is its own scan, so
// it bounds itself; a job that reappears (a speculative re-issue after
// it left the listing) simply recompiles.
func evictIdle(compiled map[string]*compiledJob, jobs []string) {
	for hash, cj := range compiled {
		if !slices.Contains(jobs, cj.job) {
			delete(compiled, hash)
		}
	}
}

// discoverJobs resolves the job IDs to work on: the explicit list, or
// every running distributed job in the (paginated) listing.
func discoverJobs(ctx context.Context, cfg Config) ([]string, error) {
	if len(cfg.Jobs) > 0 {
		return cfg.Jobs, nil
	}
	var ids []string
	cursor := ""
	for {
		page, err := cfg.Client.Jobs(ctx, apiclient.JobsOptions{
			Limit: 200, Cursor: cursor, State: "running",
		})
		if err != nil {
			return nil, err
		}
		for _, j := range page.Jobs {
			if j.Spec.Execution == campaign.ExecutionDistributed {
				ids = append(ids, j.ID)
			}
		}
		if page.NextCursor == "" {
			return ids, nil
		}
		cursor = page.NextCursor
	}
}

// workJob claims and executes one batch for one job, returning the
// number of shards leased to us.
func workJob(ctx context.Context, cfg Config, logger *slog.Logger, jobID string, compiled map[string]*compiledJob, stats *Stats) (int, error) {
	var claim apiclient.Claim
	err := retry(ctx, cfg, logger, stats, "claim", func() error {
		var cerr error
		claim, cerr = cfg.Client.Claim(ctx, jobID, cfg.ID, cfg.Batch)
		return cerr
	})
	if err != nil {
		// The job may have finished, or be a local-execution job named
		// explicitly; neither ends the worker.
		if apiclient.IsCode(err, "job_not_found") || apiclient.IsCode(err, "job_not_distributed") {
			return 0, nil
		}
		if apiclient.IsCode(err, "worker_quarantined") {
			// Benched by the health scoreboard: honor the Retry-After (the
			// quarantine window), then resume claiming — probation re-admits
			// a worker that behaves.
			stats.Quarantined++
			wait := apiclient.RetryAfter(err)
			if wait <= 0 {
				wait = cfg.Poll
			}
			logger.Warn("quarantined by coordinator; backing off", "job", jobID, "wait", wait)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(wait):
			}
			return 0, nil
		}
		return 0, err
	}
	stats.Claims++
	if len(claim.Shards) == 0 {
		return 0, nil
	}
	if cfg.WedgeAfterClaim {
		return len(claim.Shards), wedgeHold(ctx, cfg, logger, claim, stats)
	}
	cj, err := compileFor(claim, compiled)
	if err != nil {
		return 0, err
	}
	ttl := time.Duration(claim.LeaseTTLSeconds * float64(time.Second))
	for _, sh := range claim.Shards {
		if err := executeAndUpload(ctx, cfg, logger, claim, cj, sh, ttl, stats); err != nil {
			return len(claim.Shards), err
		}
	}
	return len(claim.Shards), nil
}

// wedgeHold is WedgeAfterClaim's body: sit on the claimed batch,
// heartbeating every lease so none ever lapses, and never upload. The
// coordinator sees a live worker making zero progress — exactly the
// straggler that speculation must race and the scoreboard must
// eventually quarantine (each speculation loss is a strike). Returns
// once every held lease has been rejected (shards completed by the
// speculating winners) or the context ends.
func wedgeHold(ctx context.Context, cfg Config, logger *slog.Logger, claim apiclient.Claim, stats *Stats) error {
	ttl := time.Duration(claim.LeaseTTLSeconds * float64(time.Second))
	interval := heartbeatInterval(ttl, cfg.ID)
	if interval <= 0 {
		interval = cfg.Poll
	}
	logger.Warn("wedged: holding leases without executing",
		"job", claim.Job, "shards", len(claim.Shards))
	live := make(map[int]string, len(claim.Shards))
	for _, sh := range claim.Shards {
		live[sh.Index] = sh.Lease
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for len(live) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		for idx, lease := range live {
			_, err := cfg.Client.Heartbeat(ctx, claim.Job, idx, cfg.ID, lease)
			if err != nil && !apiclient.IsTransient(err) {
				// Evicted or completed by someone else; the wedge lost this one.
				delete(live, idx)
				stats.Abandoned++
			}
		}
	}
	return nil
}

// heartbeatInterval spaces lease heartbeats: a third of the TTL scaled
// by a deterministic per-worker phase in [0.70, 1.0), so a fleet
// started in the same second does not heartbeat in lockstep. Three
// beats still fit in one TTL with margin to ride out one failure.
func heartbeatInterval(ttl time.Duration, workerID string) time.Duration {
	base := ttl / 3
	if base <= 0 {
		return 0
	}
	return time.Duration(float64(base) * (0.70 + 0.30*jitterFrac(workerID)))
}

// compileFor returns the job's cached execution state, deriving the
// engine config from the claim's canonical spec and compiling the
// frozen blueprint on first use.
func compileFor(claim apiclient.Claim, compiled map[string]*compiledJob) (*compiledJob, error) {
	if cj, ok := compiled[claim.SpecHash]; ok {
		cj.job = claim.Job
		return cj, nil
	}
	engineCfg, err := claim.Spec.Config()
	if err != nil {
		return nil, fmt.Errorf("worker: job %s spec: %w", claim.Job, err)
	}
	bp, err := engineCfg.CompileBlueprint()
	if err != nil {
		return nil, fmt.Errorf("worker: job %s blueprint: %w", claim.Job, err)
	}
	cj := &compiledJob{ex: campaign.NewExecutor(engineCfg, bp), job: claim.Job}
	compiled[claim.SpecHash] = cj
	return cj, nil
}

// executeAndUpload runs one leased shard and uploads its result, with
// a heartbeat goroutine extending the lease at a third of its TTL
// while the shard executes. The goroutine also watches for lease
// death: a terminal heartbeat rejection (evicted, superseded, job
// gone), or a coordinator unreachable for a full TTL — after which the
// lease has certainly lapsed server-side. Either way the shard is
// abandoned rather than uploaded: a dead lease's upload would only be
// rejected as stale, and the shard's next holder re-executes it to the
// same bytes anyway.
func executeAndUpload(ctx context.Context, cfg Config, logger *slog.Logger, claim apiclient.Claim, cj *compiledJob, sh apiclient.ClaimedShard, ttl time.Duration, stats *Stats) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var leaseDead atomic.Bool
	if interval := heartbeatInterval(ttl, cfg.ID); interval > 0 {
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			lastOK := time.Now()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					_, err := cfg.Client.Heartbeat(hbCtx, claim.Job, sh.Index, cfg.ID, sh.Lease)
					switch {
					case err == nil:
						lastOK = time.Now()
					case hbCtx.Err() != nil:
						return // execution finished; the upload path decides
					case !apiclient.IsTransient(err):
						leaseDead.Store(true)
						return
					case time.Since(lastOK) > ttl:
						leaseDead.Store(true)
						return
					}
				}
			}
		}()
	}

	wire, err := cj.ex.Execute(sh.Shard, sh.Slice)
	if err != nil {
		return fmt.Errorf("worker: execute shard (%d,%d) of %s: %w", sh.Shard, sh.Slice, claim.Job, err)
	}
	stats.Executed++
	wire.SpecHash = claim.SpecHash
	stopHB()

	if leaseDead.Load() {
		stats.Abandoned++
		logger.Info("lease died during execution; abandoning shard",
			"job", claim.Job, "shard", sh.Index)
		return nil
	}

	// The upload retries through transient failures: it is idempotent
	// under the coordinator's first-writer-wins dedup, so the ambiguous
	// applied-but-unacked case resolves to a harmless "duplicate". The
	// body is encoded once; every attempt resends the same bytes.
	up, err := cfg.Client.PrepareShardResult(claim.Job, sh.Index, cfg.ID, sh.Lease, wire)
	if err != nil {
		return fmt.Errorf("worker: shard (%d,%d) of %s: %w", sh.Shard, sh.Slice, claim.Job, err)
	}
	defer up.Release()
	var ack apiclient.ResultAck
	err = retry(ctx, cfg, logger, stats, "upload", func() error {
		var uerr error
		ack, uerr = up.Send(ctx)
		return uerr
	})
	if err != nil {
		if apiclient.IsCode(err, "stale_result") || apiclient.IsCode(err, "lease_expired") {
			stats.Rejected++
			logger.Info("shard result rejected", "job", claim.Job, "shard", sh.Index, "err", err)
			return nil
		}
		return err
	}
	switch ack.Status {
	case "duplicate":
		stats.Duplicate++
	default:
		stats.Accepted++
	}
	logger.Info("shard uploaded", "job", claim.Job, "shard", sh.Index,
		"status", ack.Status, "done", fmt.Sprintf("%d/%d", ack.ShardsDone, ack.ShardsTotal))
	if cfg.ExitAfterResults > 0 && stats.Accepted >= cfg.ExitAfterResults {
		return errExitAfterResults
	}
	return nil
}
