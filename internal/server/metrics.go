package server

import (
	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// eventRingSize bounds the flight-recorder event ring: at ~64 bytes a
// slot this is a few hundred KiB of fixed memory for the last 4096
// job/shard lifecycle transitions — enough to reconstruct any recent
// job's timeline via GET /v1/jobs/{id}/events.
const eventRingSize = 4096

// serverMetrics is the control plane's instrument set: HTTP request
// accounting (fed by the middleware in middleware.go), job lifecycle
// counters (fed by the job manager), store traffic, and the shared
// campaign.Metrics every job's engine run flushes into. One set exists
// per Server; /v1/metrics renders its registry.
type serverMetrics struct {
	reg      *telemetry.Registry
	events   *telemetry.EventRing
	campaign *campaign.Metrics

	httpInflight *telemetry.Gauge

	jobsSubmitted *telemetry.Counter
	jobsJoined    *telemetry.Counter
	jobsStarted   *telemetry.Counter
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsRunning   *telemetry.Gauge

	storeHits         *telemetry.Counter
	storeMisses       *telemetry.Counter
	storeBytesWritten *telemetry.Counter

	// Worker-protocol instruments: lease lifecycle (grant/expire/
	// reissue) and shard-result upload dispositions. The distributed
	// row of cmd/reprod's TestEndToEnd asserts these reconcile with the
	// run it drives.
	leaseGrants      *telemetry.Counter
	leaseExpiries    *telemetry.Counter
	leaseReissues    *telemetry.Counter
	resultsAccepted  *telemetry.Counter
	resultsDuplicate *telemetry.Counter
	resultsStale     *telemetry.Counter

	// Crash-tolerance instruments: write-ahead journal traffic, what
	// restart recovery reconstructed, and upload encodings. The crash
	// row of TestEndToEnd asserts recovery series are non-zero after a
	// kill -9 mid-campaign.
	journalRecords *telemetry.Counter
	journalBytes   *telemetry.Counter
	journalSyncs   *telemetry.Counter
	journalTorn    *telemetry.Counter

	// Straggler speculation dispositions and shed submissions. The
	// chaos row of TestEndToEnd asserts the speculation series are
	// non-zero after a wedged-worker run.
	specIssued *telemetry.Counter
	specWon    *telemetry.Counter
	specWasted *telemetry.Counter
	submitShed *telemetry.Counter

	recoveryResumed   *telemetry.Counter
	recoveryCompleted *telemetry.Counter
	recoveryDone      *telemetry.Counter
	recoveryFailed    *telemetry.Counter
	recoveryShards    *telemetry.Counter

	uploadsGzip     *telemetry.Counter
	uploadsIdentity *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		reg:      reg,
		events:   telemetry.NewEventRing(eventRingSize),
		campaign: campaign.NewMetrics(reg),
		httpInflight: reg.Gauge("repro_http_requests_inflight",
			"HTTP requests currently being served."),
		jobsSubmitted: reg.Counter("repro_jobs_total",
			"Job lifecycle transitions, by event.",
			telemetry.Label{Name: "event", Value: "submitted"}),
		jobsJoined: reg.Counter("repro_jobs_total",
			"Job lifecycle transitions, by event.",
			telemetry.Label{Name: "event", Value: "joined"}),
		jobsStarted: reg.Counter("repro_jobs_total",
			"Job lifecycle transitions, by event.",
			telemetry.Label{Name: "event", Value: "started"}),
		jobsDone: reg.Counter("repro_jobs_total",
			"Job lifecycle transitions, by event.",
			telemetry.Label{Name: "event", Value: "done"}),
		jobsFailed: reg.Counter("repro_jobs_total",
			"Job lifecycle transitions, by event.",
			telemetry.Label{Name: "event", Value: "failed"}),
		jobsRunning: reg.Gauge("repro_jobs_running",
			"Jobs currently running, local and distributed."),
		storeHits: reg.Counter("repro_store_requests_total",
			"Submissions resolved against the content-addressed store.",
			telemetry.Label{Name: "result", Value: "hit"}),
		storeMisses: reg.Counter("repro_store_requests_total",
			"Submissions resolved against the content-addressed store.",
			telemetry.Label{Name: "result", Value: "miss"}),
		storeBytesWritten: reg.Counter("repro_store_dataset_bytes_written_total",
			"Dataset bytes filed into the store by completed runs."),
		leaseGrants: reg.Counter("repro_lease_events_total",
			"Shard lease lifecycle events, by event.",
			telemetry.Label{Name: "event", Value: "grant"}),
		leaseExpiries: reg.Counter("repro_lease_events_total",
			"Shard lease lifecycle events, by event.",
			telemetry.Label{Name: "event", Value: "expire"}),
		leaseReissues: reg.Counter("repro_lease_events_total",
			"Shard lease lifecycle events, by event.",
			telemetry.Label{Name: "event", Value: "reissue"}),
		resultsAccepted: reg.Counter("repro_shard_results_total",
			"Shard result uploads, by disposition.",
			telemetry.Label{Name: "result", Value: "accepted"}),
		resultsDuplicate: reg.Counter("repro_shard_results_total",
			"Shard result uploads, by disposition.",
			telemetry.Label{Name: "result", Value: "duplicate"}),
		resultsStale: reg.Counter("repro_shard_results_total",
			"Shard result uploads, by disposition.",
			telemetry.Label{Name: "result", Value: "stale"}),
		journalRecords: reg.Counter("repro_journal_records_total",
			"Records appended to the coordinator write-ahead journal."),
		journalBytes: reg.Counter("repro_journal_bytes_total",
			"Bytes appended to the coordinator write-ahead journal."),
		journalSyncs: reg.Counter("repro_journal_syncs_total",
			"Journal fsync batches (one per durably acknowledged response)."),
		journalTorn: reg.Counter("repro_journal_torn_tails_total",
			"Torn (crash-interrupted, unacknowledged) journal tail lines dropped at recovery."),
		specIssued: reg.Counter("repro_speculation_total",
			"Straggler speculation events, by event.",
			telemetry.Label{Name: "event", Value: "issued"}),
		specWon: reg.Counter("repro_speculation_total",
			"Straggler speculation events, by event.",
			telemetry.Label{Name: "event", Value: "won"}),
		specWasted: reg.Counter("repro_speculation_total",
			"Straggler speculation events, by event.",
			telemetry.Label{Name: "event", Value: "wasted"}),
		submitShed: reg.Counter("repro_submissions_shed_total",
			"Submissions refused 429 overloaded by the admission watermark."),
		recoveryResumed: reg.Counter("repro_recovery_jobs_total",
			"Distributed jobs reconstructed from the journal at startup, by outcome.",
			telemetry.Label{Name: "outcome", Value: "resumed"}),
		recoveryCompleted: reg.Counter("repro_recovery_jobs_total",
			"Distributed jobs reconstructed from the journal at startup, by outcome.",
			telemetry.Label{Name: "outcome", Value: "completed"}),
		recoveryDone: reg.Counter("repro_recovery_jobs_total",
			"Distributed jobs reconstructed from the journal at startup, by outcome.",
			telemetry.Label{Name: "outcome", Value: "already_done"}),
		recoveryFailed: reg.Counter("repro_recovery_jobs_total",
			"Distributed jobs reconstructed from the journal at startup, by outcome.",
			telemetry.Label{Name: "outcome", Value: "failed"}),
		recoveryShards: reg.Counter("repro_recovery_shards_total",
			"Accepted shard results restored from the journal at startup."),
		uploadsGzip: reg.Counter("repro_shard_result_uploads_total",
			"Shard result uploads received, by content encoding.",
			telemetry.Label{Name: "encoding", Value: "gzip"}),
		uploadsIdentity: reg.Counter("repro_shard_result_uploads_total",
			"Shard result uploads received, by content encoding.",
			telemetry.Label{Name: "encoding", Value: "identity"}),
	}
}

// workerShardSeconds returns the shard-duration histogram for one
// worker ID. Registration is idempotent, so the per-upload lookup just
// indexes the registry; worker IDs are expected to be few and stable.
func (sm *serverMetrics) workerShardSeconds(worker string) *telemetry.Histogram {
	return sm.reg.Histogram("repro_worker_shard_duration_seconds",
		"Shard execution wall time uploaded per worker, as reported in shard stats.",
		telemetry.DurationBuckets(),
		telemetry.Label{Name: "worker", Value: worker})
}

// requestInstruments returns the counter and latency histogram for one
// route pattern and status class. Registration is idempotent and
// mutex-guarded in the registry; at control-plane request rates the
// lookup cost is irrelevant next to the handler.
func (sm *serverMetrics) requestInstruments(route, codeClass string) (*telemetry.Counter, *telemetry.Histogram) {
	c := sm.reg.Counter("repro_http_requests_total",
		"HTTP requests served, by route pattern and status class.",
		telemetry.Label{Name: "route", Value: route},
		telemetry.Label{Name: "code_class", Value: codeClass})
	h := sm.reg.Histogram("repro_http_request_duration_seconds",
		"HTTP request service time, by route pattern.",
		telemetry.DurationBuckets(),
		telemetry.Label{Name: "route", Value: route})
	return c, h
}
