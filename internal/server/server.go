// Package server is the campaign-as-a-service HTTP control plane: a
// long-lived wrapper around the sharded campaign engine that accepts
// serializable campaign specs (campaign.Spec), hands each one's shards
// to workers through a lease table — in-process loopback workers or
// remote ones, one job lifecycle either way — and serves merged
// datasets — content-addressed and cached on disk, so resubmitting a
// spec is free.
//
// The API (all JSON unless noted; see DESIGN.md §11):
//
//	POST /v1/campaigns            submit a spec → job (202 queued, 200 joined/cached)
//	GET  /v1/jobs                 list jobs, submission order; limit/cursor pagination
//	GET  /v1/jobs/{id}            one job: state, progress counters
//	GET  /v1/jobs/{id}/shards     per-(vantage, slice) completion
//	GET  /v1/jobs/{id}/dataset    merged dataset, JSON lines (done jobs)
//	GET  /v1/jobs/{id}/report     apiclient.Report: determinism hash, counters, CE report
//	GET  /v1/healthz              readiness: build info, store writability, queue depth
//	GET  /v1/metrics              flight-recorder metrics, Prometheus text format
//	GET  /v1/jobs/{id}/events     one job's event ring: lifecycle + shard transitions
//	GET  /debug/pprof/...         run-time profiles (only with Config.EnablePprof)
//
// The worker protocol (distributed execution; see leases.go and
// DESIGN.md §13):
//
//	POST /v1/jobs/{id}/shards/claim              lease a batch of pending shards
//	POST /v1/jobs/{id}/shards/{shard}/heartbeat  extend one lease
//	POST /v1/jobs/{id}/shards/{shard}/result     upload one shard's result (idempotent)
//
// Claim and heartbeat bodies are plain JSON. A result upload has one
// form, the bytes apiclient writes: canonical JSON sent with
// Content-Encoding: gzip, which the coordinator scans rather than
// decodes (ingest.go); any other body is a 400, and a worker ID the
// scan could not read is refused at claim.
//
// Every request, response and error body is a type internal/apiclient
// declares (its schema.go); this package encodes and decodes exactly
// those, so a client decodes what the server writes by construction.
// Errors are uniform across every endpoint: a non-2xx response body is
// apiclient.ErrorEnvelope, {"error": {"code", "message", "fields"}},
// with one of apiclient's stable Code* constants (errors.go).
//
// The correctness contract is the engine's determinism invariant
// carried over HTTP: a dataset served here is byte-identical to what
// campaign.Run produces for the same spec, so its SHA-256 equals the
// determinism grid's hash (internal/campaign's TestDeterminismGrid) —
// whatever worker pool or slicing executed it. That is what lets the
// result cache be content-addressed by spec rather than by execution
// shape.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// Config parameterizes the control plane.
type Config struct {
	// DataDir roots the content-addressed result store.
	DataDir string
	// Logger receives one structured record per request and per job
	// transition. Nil discards logs.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose enough internals that they are opt-in
	// even on an internal control plane.
	EnablePprof bool
	// LeaseTTL is the lifetime of shard leases granted to distributed
	// workers. Zero means the 30s default.
	LeaseTTL time.Duration
	// Clock overrides the job manager's time source. Lease expiry is
	// driven entirely by this clock, so tests inject a fake and step it
	// instead of sleeping. Nil means time.Now.
	Clock func() time.Time
}

// Server routes the control-plane API. It is an http.Handler; callers
// own the net/http server and its lifecycle, and must Close to stop
// the loopback workers.
type Server struct {
	store   *Store
	mgr     *jobMgr
	mux     *http.ServeMux
	logger  *slog.Logger
	metrics *serverMetrics
	dataDir string
	start   time.Time
	// lock is the open <data dir>/LOCK file holding this coordinator's
	// exclusive claim on the directory; closing it releases the claim.
	lock *os.File
}

// lockDataDir takes the exclusive advisory lock a coordinator holds on
// its data directory for as long as it runs. Two coordinators on one
// directory would each replay, append to and unlink the other's
// journals, so the second one fails here, before it reads anything. The
// kernel drops the lock when the holder dies, however it dies.
func lockDataDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: data dir is in use by another coordinator (lock %s): %w", path, err)
	}
	return f, nil
}

// New opens the result store under cfg.DataDir, locks the directory
// and starts the job manager with one loopback worker per CPU.
func New(cfg Config) (*Server, error) { return newServer(cfg, runtime.GOMAXPROCS(0)) }

// newServer is New with the loopback pool sized by the caller (tests).
func newServer(cfg Config, loopbacks int) (*Server, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	lock, err := lockDataDir(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(cfg.DataDir, logger)
	if err != nil {
		lock.Close()
		return nil, err
	}
	met := newServerMetrics(telemetry.NewRegistry())
	s := &Server{
		store:   store,
		mgr:     newJobMgr(store, loopbacks, met, logger),
		mux:     http.NewServeMux(),
		logger:  logger,
		metrics: met,
		dataDir: cfg.DataDir,
		start:   time.Now(),
		lock:    lock,
	}
	if cfg.LeaseTTL > 0 {
		s.mgr.leaseTTL = cfg.LeaseTTL
	}
	if cfg.Clock != nil {
		s.mgr.now = cfg.Clock
	}
	wd, err := openWALDir(cfg.DataDir)
	if err != nil {
		s.Abort()
		return nil, err
	}
	s.mgr.wal = wd
	// Replay before any route is reachable: recovered jobs exist — with
	// their accepted shards and lease table — from the first request the
	// restarted coordinator answers.
	if err := s.mgr.recover(); err != nil {
		s.Abort()
		return nil, err
	}
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/campaigns", s.handleSubmit)
	handle("GET /v1/jobs", s.handleJobs)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("GET /v1/jobs/{id}/shards", s.handleJobShards)
	handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	handle("GET /v1/jobs/{id}/dataset", s.handleJobDataset)
	handle("GET /v1/jobs/{id}/report", s.handleJobReport)
	handle("POST /v1/jobs/{id}/shards/claim", s.handleShardClaim)
	handle("POST /v1/jobs/{id}/shards/{shard}/heartbeat", s.handleShardHeartbeat)
	handle("POST /v1/jobs/{id}/shards/{shard}/result", s.handleShardResult)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// pprof handlers register on their own; the index route
		// dispatches the named profiles. Deliberately uninstrumented —
		// a profile download's duration would distort the latency
		// histogram it appears in.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Registry exposes the server's telemetry registry (benchmarks and
// embedding tools read it directly instead of scraping themselves).
func (s *Server) Registry() *telemetry.Registry { return s.metrics.reg }

// handleMetrics renders the registry in the Prometheus text
// exposition; the body is a point-in-time snapshot, never a stream.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	_ = s.metrics.reg.WritePrometheus(w)
}

// handleJobEvents serves one job's slice of the flight-recorder event
// ring: every lifecycle and shard transition the ring still holds,
// oldest first. A long-retired job yields an empty list, not a 404 —
// the ring is a bounded recorder, not a database.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	events := s.metrics.events.JobEvents(view.ID)
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     view.ID,
		"state":  view.State,
		"events": events,
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the job manager; open local jobs finish and are cached,
// and the data-dir lock is released.
func (s *Server) Close() {
	s.mgr.Close()
	s.lock.Close()
}

// Abort stops the server as a crash would: the loopback workers exit
// after the shard in hand, open local jobs stay unfinished in their
// journals, and the data-dir lock is released as the kernel would release a dead
// process's. Tests that restart a coordinator on the same data
// directory in one process use it after closing the listener.
func (s *Server) Abort() {
	s.mgr.Abort()
	s.lock.Close()
}

// BeginDrain opens the graceful-shutdown window: new submissions and
// shard claims are refused with 503 unavailable + Retry-After;
// heartbeats, in-flight shard uploads and local jobs keep going; healthz
// reports "draining". Call on SIGTERM, before the HTTP server stops
// accepting, then Close.
func (s *Server) BeginDrain() { s.mgr.BeginDrain() }

// Store exposes the result store (read paths are used by tooling).
func (s *Server) Store() *Store { return s.store }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// handleSubmit parses, validates and submits a spec. A malformed or
// invalid body is a structured 400; a fresh submission is 202 with the
// queued job; a duplicate of an in-flight or cached run is 200 with
// the job serving it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "read body: %v", err))
		return
	}
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		var verr *campaign.ValidationError
		if errors.As(err, &verr) {
			writeFault(w, verr)
		} else {
			writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "%v", err))
		}
		return
	}
	view, created, err := s.mgr.Submit(spec)
	if err != nil {
		writeFault(w, err)
		return
	}
	// A fresh submission queues work (202); a duplicate — joined onto
	// an in-flight identical run or served from the cache — is 200.
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	s.logger.Info("submit",
		"key", view.Key[:12], "job", view.ID, "state", view.State, "cached", view.Cached)
	writeJSON(w, status, view)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
				"limit must be a positive integer, got %q", raw))
			return
		}
		limit = min(n, 1000)
	}
	state := apiclient.JobState(q.Get("state"))
	switch state {
	case "", apiclient.JobQueued, apiclient.JobRunning, apiclient.JobDone, apiclient.JobFailed:
	default:
		writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"unknown state filter %q", state))
		return
	}
	views, next, err := s.mgr.Page(q.Get("cursor"), limit, state)
	if err != nil {
		writeFault(w, err)
		return
	}
	if next != "" {
		// The Link rel="next" header carries the follow-up page's query.
		link := url.Values{"limit": {strconv.Itoa(limit)}, "cursor": {next}}
		if state != "" {
			link.Set("state", string(state))
		}
		w.Header().Set("Link", fmt.Sprintf("</v1/jobs?%s>; rel=\"next\"", link.Encode()))
	}
	writeJSON(w, http.StatusOK, apiclient.JobsPage{Jobs: views, NextCursor: next})
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (apiclient.Job, bool) {
	view, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeFault(w, faultf(http.StatusNotFound, apiclient.CodeJobNotFound,
			"no such job %q", r.PathValue("id")))
	}
	return view, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if view, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, view)
	}
}

func (s *Server) handleJobShards(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	shards, _ := s.mgr.Shards(view.ID)
	writeJSON(w, http.StatusOK, apiclient.JobShards{ID: view.ID, Shards: shards, State: view.State})
}

// finishedKey maps a job to its cached artifacts, or writes the
// appropriate non-200: 409 for unfinished jobs (the result does not
// exist yet), 502 for failed ones.
func (s *Server) finishedKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	view, ok := s.jobOr404(w, r)
	if !ok {
		return "", false
	}
	switch view.State {
	case apiclient.JobDone:
		return view.Key, true
	case apiclient.JobFailed:
		writeFault(w, faultf(http.StatusBadGateway, apiclient.CodeJobFailed,
			"job %s failed: %s", view.ID, view.Error))
	default:
		writeFault(w, faultf(http.StatusConflict, apiclient.CodeJobNotDone,
			"job %s is %s (%d/%d shards); retry when done",
			view.ID, view.State, view.ShardsDone, view.ShardsTotal))
	}
	return "", false
}

func (s *Server) handleJobDataset(w http.ResponseWriter, r *http.Request) {
	if key, ok := s.finishedKey(w, r); ok {
		s.serveDataset(w, key)
	}
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	if key, ok := s.finishedKey(w, r); ok {
		s.serveMeta(w, key)
	}
}

func (s *Server) serveMeta(w http.ResponseWriter, key string) {
	meta, err := s.store.Meta(key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeFault(w, faultf(http.StatusNotFound, apiclient.CodeRunNotFound, "no cached run %q", key))
			return
		}
		writeFault(w, err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) serveDataset(w http.ResponseWriter, key string) {
	rc, size, err := s.store.OpenDataset(key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeFault(w, faultf(http.StatusNotFound, apiclient.CodeRunNotFound, "no cached run %q", key))
			return
		}
		writeFault(w, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	// The file goes straight to the writer's ReadFrom: io.Copy would ask
	// the *os.File's WriteTo first, which falls back to a fresh 32 KB
	// buffer for a writer that is not a socket. Client disconnects are
	// not server errors.
	if rf, ok := w.(io.ReaderFrom); ok {
		_, _ = rf.ReadFrom(rc)
	} else {
		_, _ = io.Copy(w, rc)
	}
}

// shardIndex parses the {shard} path segment — the shard's index in
// the job's canonical plan, as returned by claim.
func shardIndex(r *http.Request) (int, error) {
	idx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		return 0, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"shard must be a plan index, got %q", r.PathValue("shard"))
	}
	return idx, nil
}

func (s *Server) handleShardClaim(w http.ResponseWriter, r *http.Request) {
	var req apiclient.ClaimRequest
	if err := s.decodeBody(w, r, 1<<20, &req); err != nil {
		writeFault(w, err)
		return
	}
	if req.Worker == "" {
		writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "worker is required"))
		return
	}
	if !dataset.PlainString(req.Worker) {
		// Its uploads would carry the ID escaped, which the scan refuses:
		// a worker that cannot upload gets no lease.
		writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"worker %q must be printable ASCII without \" \\ < > &", req.Worker))
		return
	}
	resp, err := s.mgr.Claim(r.PathValue("id"), req.Worker, req.MaxShards)
	if err != nil {
		writeFault(w, err)
		return
	}
	if len(resp.Shards) > 0 {
		s.logger.Info("shards leased", "job", resp.Job, "worker", req.Worker,
			"shards", len(resp.Shards))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardHeartbeat(w http.ResponseWriter, r *http.Request) {
	idx, err := shardIndex(r)
	if err != nil {
		writeFault(w, err)
		return
	}
	var req apiclient.HeartbeatRequest
	if err := s.decodeBody(w, r, 1<<20, &req); err != nil {
		writeFault(w, err)
		return
	}
	resp, err := s.mgr.Heartbeat(r.PathValue("id"), idx, req.Lease)
	if err != nil {
		writeFault(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxResultBytes bounds a shard-result upload, gzip'd and inflated
// alike. Paper-scale shards are single-digit MiB of JSON; 256 MiB
// leaves room without letting one request buffer unbounded memory. A
// var only so tests can pin the bound without a 256 MiB payload.
var maxResultBytes int64 = 256 << 20

func (s *Server) handleShardResult(w http.ResponseWriter, r *http.Request) {
	idx, err := shardIndex(r)
	if err != nil {
		writeFault(w, err)
		return
	}
	if !strings.EqualFold(r.Header.Get("Content-Encoding"), encGzip) {
		writeFault(w, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"a shard result must be sent with Content-Encoding: gzip"))
		return
	}
	// The body is read once and kept as received: it is scanned here
	// for validation, journaled verbatim on accept, and copied into the
	// job. Its buffers go back only when ShardResult has returned — the
	// journal append and that copy in there are the last readers of raw,
	// and nothing else read from them aliases either buffer.
	buf := s.mgr.ingest.get()
	defer s.mgr.ingest.put(buf)
	raw, err := buf.readBody(w, r, maxResultBytes)
	if err != nil {
		writeFault(w, err)
		return
	}
	up, err := buf.acceptUpload(raw, maxResultBytes)
	if err != nil {
		writeFault(w, err)
		return
	}
	resp, err := s.mgr.ShardResult(r.PathValue("id"), idx, up.worker, up.lease, &up.result, raw)
	if err != nil {
		writeFault(w, err)
		return
	}
	s.logger.Info("shard result", "job", resp.Job, "shard", idx,
		"worker", up.worker, "status", resp.Status,
		"done", fmt.Sprintf("%d/%d", resp.ShardsDone, resp.ShardsTotal))
	writeJSON(w, http.StatusOK, resp)
}
