package apiclient

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
)

// The v1 wire schema. internal/server encodes and decodes exactly these
// types, so every field name, order and omitempty here is the byte
// layout of a response body (and of a filed run's meta.json); a change
// to one is a change to the API.

// JobState is a job's lifecycle phase: queued → running → done/failed.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ShardState is a shard's phase in its job's lease table: pending →
// leased → done, or back to pending when a lease lapses.
type ShardState string

const (
	ShardPending ShardState = "pending"
	ShardLeased  ShardState = "leased"
	ShardDone    ShardState = "done"
)

// Job is one job snapshot: the body of POST /v1/campaigns and
// GET /v1/jobs/{id}.
type Job struct {
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

	// Progress counters, fed by accepted shard results.
	ShardsTotal int `json:"shards_total"`
	ShardsDone  int `json:"shards_done"`
	TracesTotal int `json:"traces_total"`
	TracesDone  int `json:"traces_done"`
}

// JobsPage is GET /v1/jobs' body: one page of jobs in submission
// order. NextCursor, when non-empty, resumes the listing (also carried
// in a Link rel="next" header).
type JobsPage struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// Shard is one (vantage, slice) shard's completion state within a job:
// pending → leased → done, with evictions looping a distributed job's
// leased shards back to pending.
type Shard struct {
	campaign.ShardInfo
	State ShardState `json:"state"`
	// Worker is the worker holding (or having completed) the shard:
	// a remote worker's ID, or "local" for the loopback goroutines.
	Worker string `json:"worker,omitempty"`
	// Execution stats, populated when the shard completes.
	Events         uint64  `json:"events,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// JobShards is GET /v1/jobs/{id}/shards' body. Its keys are in the
// order the route has always written them, sorted.
type JobShards struct {
	ID     string   `json:"id"`
	Shards []Shard  `json:"shards"`
	State  JobState `json:"state"`
}

// Report describes one filed campaign run: what ran, the determinism
// hash of its dataset, and its execution counters. It is the body of
// GET /v1/jobs/{id}/report and of the store's meta.json.
type Report struct {
	Key  string        `json:"key"`
	Spec campaign.Spec `json:"spec"` // normalized (canonical form)
	// DatasetSHA256 is the SHA-256 of the dataset — by the campaign
	// determinism invariant, equal to the hash campaign.Run's dataset
	// has for the same spec, whatever execution shape either used.
	DatasetSHA256 string `json:"dataset_sha256"`
	DatasetBytes  int64  `json:"dataset_bytes"`
	Traces        int    `json:"traces"`
	Servers       int    `json:"servers"`
	Shards        int    `json:"shards"`
	// Events counters aggregate over shards; the phantom/replayed split
	// mirrors campaign.Result.
	Events             uint64    `json:"events"`
	PhantomEvents      uint64    `json:"events_phantom"`
	ReplayedBoundaries uint64    `json:"boundaries_replayed"`
	WallSeconds        float64   `json:"wall_seconds"`
	CompletedAt        time.Time `json:"completed_at"`
	// Congestion is the verbose-mode CE-mark report for congested
	// scenarios; nil for uncongested runs.
	Congestion *analysis.CEMarkReport `json:"congestion,omitempty"`
}

// ClaimRequest is POST /v1/jobs/{id}/shards/claim's body.
type ClaimRequest struct {
	// Worker identifies the claiming worker; it labels leases, ring
	// events and the per-worker shard-duration histogram.
	Worker string `json:"worker"`
	// MaxShards bounds the leased batch; zero or negative means 1.
	MaxShards int `json:"max_shards"`
}

// Claim is the claim route's reply. It carries everything a worker
// needs to execute without further reads: the job's canonical spec
// (compile the blueprint locally), its cache key (stamp uploads for the
// spec-hash guard), and the leased batch. An empty batch with state
// running means every remaining shard is leased elsewhere — back off
// and re-claim; done or failed means drain.
type Claim struct {
	Job             string         `json:"job"`
	State           JobState       `json:"state"`
	SpecHash        string         `json:"spec_hash"`
	Spec            campaign.Spec  `json:"spec"`
	LeaseTTLSeconds float64        `json:"lease_ttl_seconds"`
	ShardsTotal     int            `json:"shards_total"`
	ShardsDone      int            `json:"shards_done"`
	Shards          []ClaimedShard `json:"shards"`
}

// ClaimedShard is one leased shard in a claim.
type ClaimedShard struct {
	// Index is the shard's position in the job's canonical plan — the
	// {shard} the heartbeat and result routes address.
	Index int `json:"index"`
	campaign.ShardInfo
	// Lease is the opaque token the worker must present on heartbeat
	// and upload; ExpiresAt is its deadline on the coordinator's clock.
	Lease     string    `json:"lease"`
	ExpiresAt time.Time `json:"expires_at"`
	// Speculative marks a straggler re-issue: another worker still holds
	// a live lease on this shard, and the first upload wins.
	Speculative bool `json:"speculative,omitempty"`
}

// HeartbeatRequest is POST /v1/jobs/{id}/shards/{shard}/heartbeat's
// body: the worker's identity and the lease it holds on the shard.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// Heartbeat acknowledges a lease extension.
type Heartbeat struct {
	Job       string    `json:"job"`
	Index     int       `json:"index"`
	ExpiresAt time.Time `json:"expires_at"`
}

// ResultAck acknowledges a shard upload.
type ResultAck struct {
	Job         string   `json:"job"`
	Index       int      `json:"index"`
	Status      string   `json:"status"` // ResultAccepted or ResultDuplicate
	ShardsDone  int      `json:"shards_done"`
	ShardsTotal int      `json:"shards_total"`
	State       JobState `json:"state"`
}

// ResultAck statuses: the winning upload, and an idempotent re-send of
// a shard that has already landed.
const (
	ResultAccepted  = "accepted"
	ResultDuplicate = "duplicate"
)

// ErrorEnvelope is every non-2xx v1 response body:
//
//	{"error": {"code": "...", "message": "...", "fields": [...]}}
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// The stable v1 error codes — the machine-readable contract a client
// branches on (APIError.Code, IsCode); messages are advisory prose.
// The table, with each code's status, is DESIGN.md §13.1.
const (
	CodeBadRequest        = "bad_request"         // malformed body, unparseable parameter
	CodeSpecInvalid       = "spec_invalid"        // spec failed validation; fields populated
	CodeJobNotFound       = "job_not_found"       // unknown job ID
	CodeRunNotFound       = "run_not_found"       // a done job whose run is gone from the store
	CodeShardNotFound     = "shard_not_found"     // shard index outside the job's plan
	CodeJobNotDone        = "job_not_done"        // artifacts requested before completion
	CodeJobFailed         = "job_failed"          // artifacts requested from a failed job
	CodeJobNotDistributed = "job_not_distributed" // remote-worker call against a local job
	CodeLeaseExpired      = "lease_expired"       // heartbeat on a lapsed or superseded lease
	CodeStaleResult       = "stale_result"        // upload under an evicted lease or wrong spec hash
	CodeResultInvalid     = "result_invalid"      // upload payload inconsistent with the claimed shard
	CodeCursorInvalid     = "cursor_invalid"      // pagination cursor does not resolve
	CodeQueueFull         = "queue_full"          // job queue at capacity
	CodeUnavailable       = "unavailable"         // shutting down
	CodeOverloaded        = "overloaded"          // submission shed: open work past the admission watermark
	CodeInternal          = "internal"            // unclassified server-side failure
)
