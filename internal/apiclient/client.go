// Package apiclient is the typed Go client for the control plane's v1
// API — the one place request paths, bodies and response shapes are
// spelled out. The worker mode, the httptest suites and the CLI all
// speak to the server through it, so a wire-contract change is a
// one-package edit.
//
// The client deliberately defines its own response structs rather than
// importing internal/server: it models the wire contract, not the
// server's internals, which is what lets the httptest suites assert
// the contract from the outside.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/freelist"
)

// Client talks to one coordinator. The zero HTTP client is replaced by
// http.DefaultClient; all methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// timeout bounds each individual request (WithTimeout); zero means
	// only the caller's context applies.
	timeout time.Duration
	// plainUploads disables gzip on shard-result uploads
	// (WithUploadCompression(false)); uploads compress by default.
	plainUploads bool
	// encoders recycles shard-upload encoding state (upload.go); the
	// With* copies of a client share it.
	encoders *freelist.List[uploadEncoder]
}

// New returns a client for the coordinator at base (e.g.
// "http://127.0.0.1:8080").
func New(base string) *Client {
	return NewWithHTTPClient(base, http.DefaultClient)
}

// NewWithHTTPClient uses a caller-supplied http.Client (timeouts,
// transports, test instrumentation).
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, encoders: &freelist.List[uploadEncoder]{}}
}

// WithTimeout returns a copy of the client whose every request carries
// its own deadline on top of the caller's context — the guard that
// turns a hung coordinator into a retryable error instead of a stuck
// worker. Zero removes the per-request bound.
func (c *Client) WithTimeout(d time.Duration) *Client {
	cp := *c
	cp.timeout = d
	return &cp
}

// WithUploadCompression returns a copy of the client with gzip
// shard-result uploads switched on (the default) or off. Off exists
// for old coordinators and for measuring what compression buys.
func (c *Client) WithUploadCompression(on bool) *Client {
	cp := *c
	cp.plainUploads = !on
	return &cp
}

// APIError is any non-2xx response, decoded from the unified error
// envelope. Code is the stable machine-readable contract; branch on it,
// not on Message.
type APIError struct {
	Status  int
	Code    string
	Message string
	Fields  []campaign.FieldError
	// RetryAfter is the server's back-off hint in seconds (the
	// Retry-After header on drain/overload rejections); zero when the
	// server sent none.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsTransient classifies an error for retry: true means a later,
// identical request may succeed and the server's idempotency (dedup,
// first-writer-wins uploads) makes the re-send safe. API errors are
// transient iff server-side (5xx — unavailable, queue_full, internal)
// or an explicit back-off signal (429 — worker_quarantined,
// overloaded: the server WANTS a later retry, just not a prompt one);
// every other 4xx is a fact about the request that retrying cannot
// change (spec_invalid, stale_result, lease_expired, ...). Anything
// that never became an HTTP response — severed connections, timeouts,
// DNS — is the ambiguous case and is transient by design. A canceled
// caller context is terminal: the caller gave up.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	var ae *APIError
	if asAPIError(err, &ae) {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	return true
}

// RetryAfter extracts the server's Retry-After hint from an error,
// zero when there is none — callers stretch their backoff to honor it.
func RetryAfter(err error) time.Duration {
	var ae *APIError
	if asAPIError(err, &ae) && ae.RetryAfter > 0 {
		return time.Duration(ae.RetryAfter) * time.Second
	}
	return 0
}

// IsCode reports whether err is an APIError carrying the given stable
// code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return asAPIError(err, &ae) && ae.Code == code
}

func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Job is one job snapshot (GET /v1/jobs/{id}).
type Job struct {
	ID        string        `json:"id"`
	Key       string        `json:"key"`
	State     string        `json:"state"`
	Cached    bool          `json:"cached"`
	Error     string        `json:"error,omitempty"`
	Spec      campaign.Spec `json:"spec"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`

	ShardsTotal int `json:"shards_total"`
	ShardsDone  int `json:"shards_done"`
	TracesTotal int `json:"traces_total"`
	TracesDone  int `json:"traces_done"`
}

// Terminal job states, mirroring the server's lifecycle vocabulary.
const (
	JobDone   = "done"
	JobFailed = "failed"
)

// Shard is one (vantage, slice) unit's completion state.
type Shard struct {
	campaign.ShardInfo
	State          string  `json:"state"`
	Worker         string  `json:"worker,omitempty"`
	Events         uint64  `json:"events,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// JobsPage is one page of the job listing.
type JobsPage struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// RunsPage is one page of cached run keys.
type RunsPage struct {
	Runs       []string `json:"runs"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// Report is a run's stored metadata (GET .../report). Congestion, when
// present, is the CE-mark report left raw for callers that render it.
type Report struct {
	Key                string          `json:"key"`
	Spec               campaign.Spec   `json:"spec"`
	DatasetSHA256      string          `json:"dataset_sha256"`
	DatasetBytes       int64           `json:"dataset_bytes"`
	Traces             int             `json:"traces"`
	Servers            int             `json:"servers"`
	Shards             int             `json:"shards"`
	Events             uint64          `json:"events"`
	PhantomEvents      uint64          `json:"events_phantom"`
	ReplayedBoundaries uint64          `json:"boundaries_replayed"`
	WallSeconds        float64         `json:"wall_seconds"`
	CompletedAt        time.Time       `json:"completed_at"`
	Congestion         json.RawMessage `json:"congestion,omitempty"`
}

// ClaimedShard is one leased shard in a claim.
type ClaimedShard struct {
	Index int `json:"index"`
	campaign.ShardInfo
	Lease     string    `json:"lease"`
	ExpiresAt time.Time `json:"expires_at"`
	// Speculative marks a straggler re-issue: another worker still holds
	// a live lease on this shard and the first upload wins.
	Speculative bool `json:"speculative,omitempty"`
}

// Worker is one worker's health-scoreboard entry (GET /v1/workers).
type Worker struct {
	ID      string `json:"id"`
	State   string `json:"state"` // healthy | quarantined | probation
	Strikes int    `json:"strikes"`

	LeaseExpiries     int `json:"lease_expiries"`
	StaleUploads      int `json:"stale_uploads"`
	SpeculationLosses int `json:"speculation_losses"`

	Claims   int `json:"claims"`
	Accepted int `json:"accepted"`

	LastSeen         time.Time  `json:"last_seen"`
	QuarantinedUntil *time.Time `json:"quarantined_until,omitempty"`
}

// Claim is a claim response: the job's canonical spec and cache key
// plus the leased batch (empty when nothing is pending).
type Claim struct {
	Job             string         `json:"job"`
	State           string         `json:"state"`
	SpecHash        string         `json:"spec_hash"`
	Spec            campaign.Spec  `json:"spec"`
	LeaseTTLSeconds float64        `json:"lease_ttl_seconds"`
	ShardsTotal     int            `json:"shards_total"`
	ShardsDone      int            `json:"shards_done"`
	Shards          []ClaimedShard `json:"shards"`
}

// Heartbeat acknowledges a lease extension.
type Heartbeat struct {
	Job       string    `json:"job"`
	Index     int       `json:"index"`
	ExpiresAt time.Time `json:"expires_at"`
}

// ResultAck acknowledges a shard upload ("accepted" or "duplicate").
type ResultAck struct {
	Job         string `json:"job"`
	Index       int    `json:"index"`
	Status      string `json:"status"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
	State       string `json:"state"`
}

// Reply size bounds. The client buffers every reply whole, so each read
// is capped: a coordinator (or a proxy in front of it) that misbehaves
// costs a request, not the process. JSON replies are job views, listing
// pages and claims; raw replies are datasets (27 MB at paper scale) and
// the metrics text. replyHintBytes is the most a Content-Length header
// reserves before the bytes it promises arrive — enough for a
// paper-scale dataset in one allocation, far below maxDatasetBytes.
const (
	maxReplyBytes   = 16 << 20
	maxDatasetBytes = 1 << 30
	replyHintBytes  = 32 << 20
)

// ReplyTooLargeError is a reply the client refused to buffer: its
// Content-Length, or the bytes that actually arrived, passed the bound
// for that kind of request.
type ReplyTooLargeError struct {
	Limit int64
}

func (e *ReplyTooLargeError) Error() string {
	return fmt.Sprintf("api: reply exceeds the %d-byte limit", e.Limit)
}

// readReply buffers a response body of at most limit bytes. A declared
// Content-Length up to replyHintBytes sizes the buffer exactly (one
// allocation, no doubling and no tail copy); past that the header is
// only a hint — replyHintBytes are reserved and the rest grows as bytes
// arrive, like an undeclared length — and one past limit is refused
// before a byte is reserved.
func readReply(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, &ReplyTooLargeError{Limit: limit}
	}
	if n >= 0 && n <= replyHintBytes {
		buf := make([]byte, n)
		_, err := io.ReadFull(resp.Body, buf)
		return buf, err
	}
	buf := new(bytes.Buffer)
	if n > 0 {
		buf = bytes.NewBuffer(make([]byte, 0, replyHintBytes))
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(buf.Len()) > limit {
		return nil, &ReplyTooLargeError{Limit: limit}
	}
	return buf.Bytes(), err
}

// do issues one request: in (when non-nil) is marshaled as the JSON
// body, a non-2xx response becomes an *APIError decoded from the
// envelope, and out (when non-nil) receives the decoded 2xx body.
// Returns the HTTP status for callers that branch on 200-vs-202.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, cancel, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return 0, err
	}
	defer cancel()
	return c.exchange(req, out)
}

// newRequest builds a request under the client's per-request deadline,
// if it has one; the caller defers cancel. A non-nil body is JSON.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, context.CancelFunc, error) {
	cancel := context.CancelFunc(func() {})
	if c.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, cancel, nil
}

// exchange sends req and reads its bounded JSON reply, decoding errors
// and output like do.
func (c *Client) exchange(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := readReply(resp, maxReplyBytes)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, decodeAPIError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("api: decode %s %s: %w", req.Method, req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

func decodeAPIError(resp *http.Response, raw []byte) error {
	retryAfter := 0
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		retryAfter, _ = strconv.Atoi(ra)
	}
	var envelope struct {
		Error struct {
			Code    string                `json:"code"`
			Message string                `json:"message"`
			Fields  []campaign.FieldError `json:"fields"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error.Code == "" {
		return &APIError{Status: resp.StatusCode, Code: "internal",
			Message:    fmt.Sprintf("unparseable error body: %.200s", raw),
			RetryAfter: retryAfter}
	}
	return &APIError{
		Status:     resp.StatusCode,
		Code:       envelope.Error.Code,
		Message:    envelope.Error.Message,
		Fields:     envelope.Error.Fields,
		RetryAfter: retryAfter,
	}
}

// raw issues a GET and returns the undecoded body (datasets, metrics).
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readReply(resp, maxDatasetBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, decodeAPIError(resp, body)
	}
	return body, nil
}

// Submit posts a spec. created reports whether this submission queued
// fresh work (202) rather than joining an in-flight or cached run
// (200).
func (c *Client) Submit(ctx context.Context, spec campaign.Spec) (job Job, created bool, err error) {
	status, err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &job)
	return job, status == http.StatusAccepted, err
}

// SubmitRaw posts a pre-encoded spec body unchanged (the CLI's -spec
// passthrough).
func (c *Client) SubmitRaw(ctx context.Context, body []byte) (job Job, created bool, err error) {
	status, err := c.do(ctx, http.MethodPost, "/v1/campaigns", json.RawMessage(body), &job)
	return job, status == http.StatusAccepted, err
}

// Job fetches one job snapshot.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var job Job
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	return job, err
}

// AwaitJob polls until the job reaches a terminal state. A failed job
// is returned with a non-nil error carrying its message.
func (c *Client) AwaitJob(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return job, err
		}
		switch job.State {
		case JobDone:
			return job, nil
		case JobFailed:
			return job, fmt.Errorf("api: job %s failed: %s", id, job.Error)
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// JobsOptions filter and paginate the job listing.
type JobsOptions struct {
	Limit  int
	Cursor string
	State  string
}

// Jobs fetches one page of the job listing.
func (c *Client) Jobs(ctx context.Context, opts JobsOptions) (JobsPage, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobsPage
	_, err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Shards fetches a job's per-(vantage, slice) completion snapshot.
func (c *Client) Shards(ctx context.Context, id string) ([]Shard, error) {
	var resp struct {
		Shards []Shard `json:"shards"`
	}
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/shards", nil, &resp)
	return resp.Shards, err
}

// JobDataset fetches a done job's merged dataset (JSON lines).
func (c *Client) JobDataset(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v1/jobs/"+url.PathEscape(id)+"/dataset")
}

// JobReport fetches a done job's stored RunMeta.
func (c *Client) JobReport(ctx context.Context, id string) (Report, error) {
	var rep Report
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/report", nil, &rep)
	return rep, err
}

// Runs fetches one page of cached run keys.
func (c *Client) Runs(ctx context.Context, limit int, cursor string) (RunsPage, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/v1/runs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page RunsPage
	_, err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// RunReport fetches a cached run's RunMeta by key.
func (c *Client) RunReport(ctx context.Context, key string) (Report, error) {
	var rep Report
	_, err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(key), nil, &rep)
	return rep, err
}

// RunDataset fetches a cached run's dataset by key.
func (c *Client) RunDataset(ctx context.Context, key string) ([]byte, error) {
	return c.raw(ctx, "/v1/runs/"+url.PathEscape(key)+"/dataset")
}

// Workers fetches the worker health scoreboard.
func (c *Client) Workers(ctx context.Context) ([]Worker, error) {
	var resp struct {
		Workers []Worker `json:"workers"`
	}
	_, err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &resp)
	return resp.Workers, err
}

// MetricsText fetches /v1/metrics in the Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	body, err := c.raw(ctx, "/v1/metrics")
	return string(body), err
}

// Claim leases up to max pending shards of a distributed job.
func (c *Client) Claim(ctx context.Context, jobID, worker string, max int) (Claim, error) {
	req := struct {
		Worker    string `json:"worker"`
		MaxShards int    `json:"max_shards"`
	}{Worker: worker, MaxShards: max}
	var claim Claim
	_, err := c.do(ctx, http.MethodPost,
		"/v1/jobs/"+url.PathEscape(jobID)+"/shards/claim", req, &claim)
	return claim, err
}

// Heartbeat extends one lease by a full TTL.
func (c *Client) Heartbeat(ctx context.Context, jobID string, index int, worker, lease string) (Heartbeat, error) {
	req := struct {
		Worker string `json:"worker"`
		Lease  string `json:"lease"`
	}{Worker: worker, Lease: lease}
	var hb Heartbeat
	_, err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("/v1/jobs/%s/shards/%d/heartbeat", url.PathEscape(jobID), index), req, &hb)
	return hb, err
}

// PushShardResult uploads one executed shard under its lease. The
// body is gzip-compressed by default (trace wire payloads are large,
// repetitive JSON); WithUploadCompression(false) sends it plain. The
// upload is idempotent — the server's first-writer-wins dedup makes
// re-sending after an ambiguous failure safe; a caller that does
// re-send should PrepareShardResult once and Send it per attempt.
func (c *Client) PushShardResult(ctx context.Context, jobID string, index int, worker, lease string, res *campaign.ShardResultWire) (ResultAck, error) {
	up, err := c.PrepareShardResult(jobID, index, worker, lease, res)
	if err != nil {
		return ResultAck{}, err
	}
	defer up.Release()
	return up.Send(ctx)
}
