package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// pollInterval is how often workers re-scan for work and the submitter
// re-reads a job it awaits.
const pollInterval = 5 * time.Millisecond

// service is one repetition's coordinator: an in-process server.New on
// a fresh data dir behind httptest (loopback TCP), journal on, every
// other server.Config field zero.
type service struct {
	dir     string
	srv     *server.Server
	ts      *httptest.Server
	rec     *recorder
	handler *tracingHandler
	calls   *callLog
	base    *http.Transport
}

func startService(o repOptions, rec *recorder) (*service, error) {
	dir, err := scratchDir(o)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, srv: srv, rec: rec, calls: &callLog{},
		base: &http.Transport{MaxIdleConnsPerHost: 16}}
	var h http.Handler = srv
	if rec != nil {
		s.handler = &tracingHandler{next: srv, rec: rec}
		h = s.handler
	}
	s.ts = httptest.NewServer(h)
	return s, nil
}

// client returns an API client for one actor (the submitter or one
// worker). Traced repetitions route it through the bench RoundTripper;
// untraced ones use the bare transport.
func (s *service) client(actor string) *apiclient.Client {
	var rt http.RoundTripper = s.base
	if s.rec != nil {
		rt = &tracingTransport{base: s.base, rec: s.rec, actor: actor, calls: s.calls}
	}
	return apiclient.NewWithHTTPClient(s.ts.URL, &http.Client{Transport: rt})
}

// stop shuts the listener, drains the coordinator (its compactor
// included, so the byte counters are final) and removes the data dir.
func (s *service) stop() {
	s.ts.Close()
	s.srv.Close()
	s.base.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// counters indexes a registry snapshot by name and label values.
type counters []telemetry.Sample

// sum adds the values of every series of the family whose labels
// include all the given name=value pairs.
func (c counters) sum(name string, labels ...string) float64 {
	var total float64
	for _, s := range c {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			found := false
			for _, l := range s.Labels {
				if l.Name == labels[i] && l.Value == labels[i+1] {
					found = true
				}
			}
			match = match && found
		}
		if match {
			total += s.Value
		}
	}
	return total
}

// bytesWritten is everything the coordinator put on disk: journal
// records, checkpoint segments and stored datasets.
func (c counters) bytesWritten() float64 {
	return c.sum("repro_journal_bytes_total") +
		c.sum("repro_journal_checkpoint_bytes_total") +
		c.sum("repro_store_dataset_bytes_written_total")
}

// workerPool runs W worker.Run goroutines and collects what they
// return.
type workerPool struct {
	wg    sync.WaitGroup
	stats []worker.Stats
	errs  []error
	walls []time.Duration
}

func (s *service) startWorkers(ctx context.Context, exitWhenIdle bool) *workerPool {
	n := concurrency()
	p := &workerPool{stats: make([]worker.Stats, n), errs: make([]error, n), walls: make([]time.Duration, n)}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("bench-w%d", i)
		client := s.client(id)
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			start := time.Now()
			p.stats[i], p.errs[i] = worker.Run(ctx, worker.Config{
				Client:       client,
				ID:           id,
				Poll:         pollInterval,
				ExitWhenIdle: exitWhenIdle,
			})
			p.walls[i] = time.Since(start)
		}(i)
	}
	return p
}

// wait joins the pool and reports worker errors. A polling worker ends
// by context cancellation, which is its normal exit.
func (p *workerPool) wait(res *repResult) {
	p.wg.Wait()
	for i, err := range p.errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			res.failf("worker error: bench-w%d: %v", i, err)
		}
	}
}

// jobOutcome is one submission as the submitter saw it.
type jobOutcome struct {
	job     apiclient.Job
	data    []byte
	latency time.Duration
}

// submitAndFetch is the submitter's closed-loop step: submit the spec,
// wait for the job, fetch the dataset. afterSubmit, when non-nil, runs
// once the job exists (paper-distributed starts its workers there).
func (s *service) submitAndFetch(ctx context.Context, client *apiclient.Client, spec campaign.Spec,
	root uint64, kind string, afterSubmit func()) (jobOutcome, error) {
	jobSpan := s.rec.start(spanJob, root)
	start := time.Now()
	job, _, err := client.Submit(ctx, spec)
	if err != nil {
		return jobOutcome{}, fmt.Errorf("submit: %w", err)
	}
	s.rec.bindJob(job.ID, jobSpan.spanID())
	if afterSubmit != nil {
		afterSubmit()
	}
	if job.State != apiclient.JobDone {
		if job, err = client.AwaitJob(ctx, job.ID, pollInterval); err != nil {
			return jobOutcome{}, fmt.Errorf("job not done: %w", err)
		}
	}
	data, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		return jobOutcome{}, fmt.Errorf("dataset fetch: %w", err)
	}
	lat := time.Since(start)
	jobSpan.end("job", job.ID, "kind", kind, "seed", spec.Seed, "bytes", len(data), "status", job.State)
	return jobOutcome{job: job, data: data, latency: lat}, nil
}

// finish takes the counters that are final only after the coordinator
// has drained, applies the service-wide checks and, on a traced
// repetition, writes the server/worker/apiclient layer metrics.
func (s *service) finish(res *repResult, pool *workerPool, execSeconds float64, datasetBytes float64) {
	snap := counters(s.srv.Registry().Snapshot())
	res.Metrics[mBytes] = snap.bytesWritten()
	if n := snap.sum("repro_http_requests_total", "code_class", "5xx"); n > 0 {
		res.failf("HTTP status: %d responses were 5xx", int(n))
	}
	if n := snap.sum("repro_jobs_total", "event", "failed"); n > 0 {
		res.failf("job not done: %d jobs failed", int(n))
	}
	if s.rec == nil {
		return
	}
	m := res.Metrics
	byRoute := make(map[string][]float64)
	serverTime := make(map[uint64]time.Duration)
	var busy time.Duration
	for _, c := range s.handler.snapshot() {
		byRoute[c.route] = append(byRoute[c.route], ms(c.dur))
		serverTime[c.parent] = c.dur
		busy += c.dur
	}
	m["server.submit_ms_p50"] = median(byRoute["submit"])
	m["server.claim_ms_p50"] = median(byRoute["claim"])
	m["server.heartbeat_ms_p50"] = median(byRoute["heartbeat"])
	m["server.result_ms_p50"] = median(byRoute["result"])
	m["server.result_ms_max"] = summarize(byRoute["result"]).Max
	m["server.dataset_get_ms"] = median(byRoute["dataset_get"])
	m["server.requests"] = snap.sum("repro_http_requests_total")
	m["server.busy_s"] = busy.Seconds()
	m["server.journal_bytes"] = snap.sum("repro_journal_bytes_total")
	m["server.journal_records"] = snap.sum("repro_journal_records_total")
	m["server.journal_syncs"] = snap.sum("repro_journal_syncs_total")
	m["server.checkpoint_bytes"] = snap.sum("repro_journal_checkpoint_bytes_total")
	m["server.compactions"] = snap.sum("repro_journal_compactions_total")
	m["server.store_bytes"] = snap.sum("repro_store_dataset_bytes_written_total")
	if datasetBytes > 0 {
		m["server.write_amp"] = snap.bytesWritten() / datasetBytes
	}
	m["server.lease_grants"] = snap.sum("repro_lease_events_total", "event", "grant")
	m["server.lease_expiries"] = snap.sum("repro_lease_events_total", "event", "expire")
	m["server.results_duplicate"] = snap.sum("repro_shard_results_total", "result", "duplicate")
	m["server.results_stale"] = snap.sum("repro_shard_results_total", "result", "stale")
	m["server.spec_issued"] = snap.sum("repro_speculation_total", "event", "issued")
	m["server.spec_wasted"] = snap.sum("repro_speculation_total", "event", "wasted")

	var claims, executed, accepted, wasted, retries int
	var workerWall time.Duration
	for i, st := range pool.stats {
		claims += st.Claims
		executed += st.Executed
		accepted += st.Accepted
		wasted += st.Duplicate + st.Rejected + st.Abandoned
		retries += st.Retries
		workerWall += pool.walls[i]
	}
	m["worker.claims"] = float64(claims)
	m["worker.executed"] = float64(executed)
	m["worker.accepted"] = float64(accepted)
	m["worker.wasted"] = float64(wasted)
	m["worker.retries"] = float64(retries)

	var rtt time.Duration
	var uploadBytes, uploadRaw int64
	var overhead []float64
	for _, c := range s.calls.snapshot() {
		if c.actor != actorSubmitter {
			rtt += c.rtt
		}
		if c.route != "result" {
			continue
		}
		uploadBytes += c.reqBytes
		uploadRaw += c.rawBytes
		if st, ok := serverTime[c.spanID]; ok {
			overhead = append(overhead, ms(c.rtt-st))
		}
	}
	m["worker.exec_s"] = execSeconds
	m["worker.rtt_s"] = rtt.Seconds()
	m["worker.other_s"] = workerWall.Seconds() - execSeconds - rtt.Seconds()
	m["apiclient.upload_bytes"] = float64(uploadBytes)
	if uploadRaw > 0 {
		m["apiclient.upload_gzip_ratio"] = float64(uploadBytes) / float64(uploadRaw)
	}
	m["apiclient.result_overhead_ms_p50"] = median(overhead)
}

// inflateUploads fills in each recorded upload's uncompressed size. It
// runs after the timed region, so measuring the gzip ratio costs the
// traced repetition nothing.
func (l *callLog) inflateUploads() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.calls {
		c := &l.calls[i]
		if c.gzBody == nil {
			continue
		}
		if zr, err := gzip.NewReader(bytes.NewReader(c.gzBody)); err == nil {
			c.rawBytes, _ = io.Copy(io.Discard, zr)
		}
		c.gzBody = nil
	}
}

// shardSpans, on a traced repetition, derives worker.shard spans for a
// finished distributed job and returns its shards' summed execution
// time: the coordinator reports each shard's execution time, and the
// shard's accepted upload started when execution (plus encoding)
// ended. The spans are marked derived: the bench cannot see inside
// worker.Run, only its requests.
func (s *service) shardSpans(ctx context.Context, client *apiclient.Client, jobID string) (execSeconds float64, err error) {
	if s.rec == nil {
		return 0, nil
	}
	shards, err := client.Shards(ctx, jobID)
	if err != nil {
		return 0, err
	}
	for _, sh := range shards {
		execSeconds += sh.ElapsedSeconds
	}
	parent := s.rec.jobSpan(jobID)
	uploads := make(map[int]callRecord)
	for _, c := range s.calls.snapshot() {
		if c.route == "result" && c.jobID == jobID && c.status == http.StatusOK {
			if prev, ok := uploads[c.shard]; !ok || c.start.Before(prev.start) {
				uploads[c.shard] = c
			}
		}
	}
	for idx, sh := range shards {
		up, ok := uploads[idx]
		if !ok || sh.ElapsedSeconds <= 0 {
			continue
		}
		began := up.start.Add(-time.Duration(sh.ElapsedSeconds * float64(time.Second)))
		s.rec.add(0, parent, "worker.shard", began, up.start,
			"derived", true, "worker", up.actor, "shard", sh.Shard, "slice", sh.Slice,
			"vantage", sh.Vantage, "events", sh.Events)
	}
	return execSeconds, nil
}

const actorSubmitter = "submitter"

// runDistributed is paper-distributed: the paper-direct campaign with
// execution=distributed, W worker.Run goroutines that exit when idle,
// and one submitter: submit → await → fetch the dataset.
func runDistributed(o repOptions, rec *recorder, res *repResult, timed func() bool) error {
	spec := paperSpec(o)
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	planned := 0
	for _, sh := range cfg.Shards() {
		planned += sh.Traces
	}
	res.Attempted = planned

	svc, err := startService(o, rec)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()
	ctx := context.Background()
	sub := svc.client(actorSubmitter)
	root := rec.startRoot()

	if timed() {
		return nil
	}
	m := startMeter()
	var pool *workerPool
	// Workers exit when idle, so they start once the job exists.
	out, err := svc.submitAndFetch(ctx, sub, spec, root.spanID(), "distributed",
		func() { pool = svc.startWorkers(ctx, true) })
	m.stop(res.Metrics)
	if pool != nil {
		pool.wait(res)
	}
	if err != nil {
		return err
	}

	hash := rec.start("bench.hash", root.spanID())
	res.Hash = fmt.Sprintf("%x", sha256.Sum256(out.data))
	hash.end("bytes", len(out.data))
	if out.job.Cached {
		res.failf("cold job %s reported cached", out.job.ID)
	}
	if out.job.State != apiclient.JobDone {
		res.failf("job not done: %s is %s", out.job.ID, out.job.State)
	}
	report, err := sub.JobReport(ctx, out.job.ID)
	if err != nil {
		return fmt.Errorf("job report: %w", err)
	}
	res.Metrics[mEvents] = float64(report.Events)
	if report.DatasetSHA256 != res.Hash {
		res.failf("hash mismatch: fetched dataset %s, coordinator filed %s", short(res.Hash), short(report.DatasetSHA256))
	}
	analysisSpan := rec.start("analysis.report", root.spanID())
	analysisStart := time.Now()
	figs, err := parseAndCheck(o, out.data, planned, res)
	analysisDur := time.Since(analysisStart)
	analysisSpan.end()
	if err != nil {
		return err
	}
	execSeconds, err := svc.shardSpans(ctx, sub, out.job.ID)
	if err != nil {
		return fmt.Errorf("job shards: %w", err)
	}
	root.end()

	meta, metaErr := svc.srv.Store().Meta(out.job.Key)
	svc.calls.inflateUploads()
	svc.stop()
	stopped = true
	svc.finish(res, pool, execSeconds, float64(len(out.data)))
	if rec != nil {
		res.Metrics["analysis.report_ms"] = ms(analysisDur)
		figs.metrics(res.Metrics)
		res.Metrics["netsim.events"] = float64(report.Events)
		if metaErr == nil {
			res.Metrics["netsim.phantom_events"] = float64(meta.PhantomEvents)
			res.Metrics["netsim.replayed_boundaries"] = float64(meta.ReplayedBoundaries)
		}
		if obs := planned * report.Servers; obs > 0 {
			res.Metrics["netsim.events_per_obs"] = float64(report.Events) / float64(obs)
		}
	}
	return nil
}

// mixSpec is the mix's i-th campaign (1-based): small scale, 4 traces
// per vantage in 4 slices (52 shards), no traceroute sweep, seed S+i,
// alternating local and distributed execution.
func mixSpec(o repOptions, i int) campaign.Spec {
	s := campaign.DefaultSpec()
	s.Scale = "small"
	s.Traces = 4
	s.SlicesPerVantage = 4
	s.Stride = 0
	s.Seed = o.Seed + int64(i)
	s.Workers = concurrency()
	if i%2 == 0 {
		s.Execution = campaign.ExecutionDistributed
	}
	return s
}

// Mix shape: cold jobs, then every spec resubmitted hitRounds times.
const (
	mixJobs   = 32
	hitRounds = 4
)

// runMix is small-service-mix: one coordinator, W polling workers, one
// closed-loop submitter running 32 small cold jobs (alternating local
// and distributed) and then 128 cache-hit resubmissions.
func runMix(o repOptions, rec *recorder, res *repResult, timed func() bool) error {
	jobs, rounds := mixJobs, hitRounds
	if o.Quick {
		jobs, rounds = 2, 1
	}
	res.Attempted = jobs * (1 + rounds)
	res.Samples = make(map[string][]float64)
	res.JobHashes = make(map[string]string)

	svc, err := startService(o, rec)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()
	ctx := context.Background()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	pool := svc.startWorkers(workerCtx, false)
	sub := svc.client(actorSubmitter)
	root := rec.startRoot()

	if timed() {
		stopWorkers()
		pool.wait(res)
		return nil
	}
	m := startMeter()
	cold := make([]jobOutcome, 0, jobs)
	hashes := make([]string, 0, jobs)
	var runErr error
	for i := 1; i <= jobs && runErr == nil; i++ {
		spec := mixSpec(o, i)
		out, err := svc.submitAndFetch(ctx, sub, spec, root.spanID(), spec.Execution, nil)
		if err != nil {
			runErr = fmt.Errorf("cold job %d: %w", i, err)
			break
		}
		metric := mJobLocal
		if spec.Execution == campaign.ExecutionDistributed {
			metric = mJob
		}
		res.Samples[metric] = append(res.Samples[metric], ms(out.latency))
		if out.job.Cached {
			res.failf("cold job %d (seed %d) reported cached", i, spec.Seed)
		}
		cold = append(cold, out)
		h := fmt.Sprintf("%x", sha256.Sum256(out.data))
		hashes = append(hashes, h)
		res.JobHashes[strconv.FormatInt(spec.Seed, 10)] = h
	}
	for round := 0; round < rounds && runErr == nil; round++ {
		for i := 1; i <= jobs; i++ {
			spec := mixSpec(o, i)
			out, err := svc.submitAndFetch(ctx, sub, spec, root.spanID(), "hit", nil)
			if err != nil {
				runErr = fmt.Errorf("resubmission of job %d: %w", i, err)
				break
			}
			res.Samples[mHit] = append(res.Samples[mHit], ms(out.latency))
			if !out.job.Cached {
				res.failf("resubmission of job %d (seed %d) was not served from the cache", i, spec.Seed)
			}
			if !bytes.Equal(out.data, cold[i-1].data) {
				res.failf("hash mismatch: resubmission of job %d returned different bytes", i)
			}
		}
	}
	m.stop(res.Metrics)
	stopWorkers()
	pool.wait(res)
	if runErr != nil {
		return runErr
	}

	sum := sha256.New()
	for _, h := range hashes {
		io.WriteString(sum, h)
	}
	res.Hash = fmt.Sprintf("%x", sum.Sum(nil))

	var events uint64
	var execSeconds, datasetBytes float64
	wantTraces := 4 * 13
	for i, out := range cold {
		report, err := sub.JobReport(ctx, out.job.ID)
		if err != nil {
			return fmt.Errorf("job report %d: %w", i+1, err)
		}
		events += report.Events
		datasetBytes += float64(len(out.data))
		if report.Traces != wantTraces {
			res.failf("short trace count: job %d has %d traces, plan has %d", i+1, report.Traces, wantTraces)
		}
		if out.job.Spec.Execution == campaign.ExecutionDistributed {
			sec, err := svc.shardSpans(ctx, sub, out.job.ID)
			if err != nil {
				return fmt.Errorf("job shards %d: %w", i+1, err)
			}
			execSeconds += sec
		}
	}
	res.Metrics[mEvents] = float64(events)
	root.end()

	svc.calls.inflateUploads()
	svc.stop()
	stopped = true
	svc.finish(res, pool, execSeconds, datasetBytes)
	if rec != nil {
		res.Metrics["netsim.events"] = float64(events)
	}
	return nil
}
