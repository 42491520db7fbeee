package worker

import (
	"context"
	"hash/fnv"
	"log/slog"
	"time"

	"repro/internal/apiclient"
)

// Worker-side resilience: how the shard executor survives a flaky
// network and a restarting coordinator. Errors split into two classes
// (apiclient.IsTransient): transient failures — severed connections,
// timeouts, 5xx, the coordinator's drain/overload rejections — are
// retried with capped exponential backoff; terminal ones (any 4xx:
// spec_invalid, stale_result, lease_expired, ...) are facts about the
// request that retrying cannot change and surface immediately.
//
// Every retried request is safe to re-send: claims grant whatever is
// pending now, discovery is a read, and shard-result uploads are
// idempotent by the coordinator's first-writer-wins dedup — the
// ambiguous failure (request applied, response lost) resolves to an
// apiclient.ResultDuplicate ack on the re-send, never a double merge.
//
// Jitter is deterministic per worker ID rather than random: a fleet of
// workers knocked back by the same coordinator restart de-synchronizes
// (each ID hashes to its own backoff scale), while any single worker's
// retry schedule reproduces exactly — in keeping with a repo where
// even the chaos is deterministic.

// The retry schedule: up to maxRetries retries of each transient
// failure, backing off from retryBase and doubling up to retryCap. The
// values are judgement, not read off a measured curve; the backoff pair
// is a variable only so this package's tests can shorten it
// (export_test.go).
const maxRetries = 8

var (
	retryBase = 100 * time.Millisecond
	retryCap  = 5 * time.Second
)

// jitterFrac hashes a worker ID to a deterministic fraction in [0, 1)
// — the one per-worker phase source shared by the retry backoff and
// the heartbeat interval, so a fleet started by one script
// de-synchronizes identically run after run.
func jitterFrac(workerID string) float64 {
	h := fnv.New64a()
	h.Write([]byte(workerID))
	return float64(h.Sum64()%1024) / 1024
}

// backoff is the delay before retry attempt+1: retryBase·2^attempt,
// capped at retryCap, scaled by the worker's jitter factor in
// [0.5, 1.0).
func backoff(attempt int, jitter float64) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	return time.Duration(float64(min(d, retryCap)) * jitter)
}

// retry runs op until it succeeds, fails terminally, or exhausts the
// budget. The server's Retry-After hint, when longer than the computed
// backoff, wins — the coordinator knows its own drain window.
func retry(ctx context.Context, cfg Config, logger *slog.Logger, stats *Stats, what string, op func() error) error {
	jitter := 0.5 + jitterFrac(cfg.ID)/2
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !apiclient.IsTransient(err) || attempt >= maxRetries {
			return err
		}
		stats.Retries++
		d := max(backoff(attempt, jitter), apiclient.RetryAfter(err))
		logger.Warn("transient failure; backing off",
			"op", what, "attempt", attempt+1, "max", maxRetries, "delay", d, "err", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}
