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
	"repro/internal/dataset"
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
	Duplicate int `json:"duplicates"`
	// Rejected counts uploads the coordinator refused (stale_result,
	// lease_expired) — work lost to eviction, not an error.
	Rejected int `json:"rejected"`
	// Retries counts transient failures absorbed by backoff-and-retry;
	// cmd/reprod's end-to-end crash row asserts workers rode through the
	// coordinator restart by this being non-zero.
	Retries int `json:"retries"`
	// Abandoned counts shards executed but never uploaded because the
	// lease died under them (heartbeat loss) — uploading on a dead
	// lease would only be rejected as stale.
	Abandoned int `json:"abandoned"`
}

// compiledJob caches the per-spec-hash execution state: one compiled
// blueprint and one executor — which instantiates its world on the
// first shard and resets it for every later one — serve every shard of
// the job. job is the job the entry last executed for; the cache drops
// an entry once that job has left the discovery scan (evictIdle).
type compiledJob struct {
	ex  *campaign.Executor
	job string
}

// Run executes the worker loop until ctx is canceled or the coordinator
// has no more distributed work (with ExitWhenIdle). The returned stats
// count this run only.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.Client == nil {
		return Stats{}, fmt.Errorf("worker: no coordinator client")
	}
	if cfg.ID == "" {
		return Stats{}, fmt.Errorf("worker: ID is required")
	}
	if !dataset.PlainString(cfg.ID) {
		// The coordinator would refuse the claim, and could not scan the
		// ID out of an upload.
		return Stats{}, fmt.Errorf("worker: ID %q must be printable ASCII without \" \\ < > &", cfg.ID)
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
			Limit: 200, Cursor: cursor, State: apiclient.JobRunning,
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
		if apiclient.IsCode(err, apiclient.CodeJobNotFound) || apiclient.IsCode(err, apiclient.CodeJobNotDistributed) {
			return 0, nil
		}
		return 0, err
	}
	stats.Claims++
	if len(claim.Shards) == 0 {
		return 0, nil
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
	// applied-but-unacked case resolves to a harmless duplicate ack. The
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
		if apiclient.IsCode(err, apiclient.CodeStaleResult) || apiclient.IsCode(err, apiclient.CodeLeaseExpired) {
			stats.Rejected++
			logger.Info("shard result rejected", "job", claim.Job, "shard", sh.Index, "err", err)
			return nil
		}
		return err
	}
	if ack.Status == apiclient.ResultDuplicate {
		stats.Duplicate++
	} else {
		stats.Accepted++
	}
	logger.Info("shard uploaded", "job", claim.Job, "shard", sh.Index,
		"status", ack.Status, "done", fmt.Sprintf("%d/%d", ack.ShardsDone, ack.ShardsTotal))
	return nil
}
