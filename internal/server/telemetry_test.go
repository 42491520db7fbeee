package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/worker"
)

// TestMetricsEndpoints runs a job and checks the exposition and the
// registry snapshot carry the key series: HTTP traffic, job lifecycle,
// engine counters.
func TestMetricsEndpoints(t *testing.T) {
	srv, ts := newTestServer(t)
	_, view := submit(t, ts, testSpec)
	awaitDone(t, ts, view.ID)

	status, body := get(t, ts, "/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_http_requests_total counter",
		`repro_http_requests_total{route="POST /v1/campaigns",code_class="2xx"} 1`,
		"# TYPE repro_http_request_duration_seconds histogram",
		`repro_jobs_total{event="submitted"} 1`,
		`repro_jobs_total{event="done"} 1`,
		"repro_jobs_running 0",
		`repro_store_requests_total{result="miss"} 1`,
		"\nrepro_sim_events_total ",
		"repro_campaign_traces_completed_total",
		"# TYPE repro_campaign_shard_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	// The in-process snapshot embedding tools read carries the same
	// series.
	found := false
	for _, s := range srv.Registry().Snapshot() {
		if s.Name == "repro_campaign_shards_completed_total" && s.Uint > 0 {
			found = true
		}
	}
	if !found {
		t.Error("Registry().Snapshot() has no completed-shards counter > 0")
	}
}

// TestWorldReuseMetrics: a local job holds one world per engine worker
// and resets it for every shard — the first worker's is the world
// compiling built, adopted rather than instantiated — and /v1/metrics
// says so: 52 shards on 2 workers are 1 instantiation and 51 resets.
func TestWorldReuseMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	_, view := submit(t, ts, `{"spec": 1, "scale": "small", "traces": 4, "seed": 2015, "stride": 0,
		"slices_per_vantage": 4, "workers": 2}`)
	done := awaitDone(t, ts, view.ID)
	if done.ShardsTotal != 52 {
		t.Fatalf("job has %d shards, want 52", done.ShardsTotal)
	}
	_, body := get(t, ts, "/v1/metrics")
	for _, want := range []string{
		"# TYPE repro_sim_worlds_total counter",
		`repro_sim_worlds_total{op="instantiate"} 1`,
		`repro_sim_worlds_total{op="reset"} 51`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
}

// TestJobEventsEndpoint replays a finished job's event log: whoever
// executed the shards, the lifecycle reads queued → running → … →
// done with every shard leased to a worker and then done.
func TestJobEventsEndpoint(t *testing.T) {
	for _, execution := range executions {
		t.Run(execution, func(t *testing.T) {
			_, ts := newTestServer(t)
			spec := pinnedSpec(campaign.ScenarioUncongested, execution)
			done := driveJob(t, ts, spec)

			status, body := get(t, ts, "/v1/jobs/"+done.ID+"/events")
			if status != http.StatusOK {
				t.Fatalf("GET events = %d", status)
			}
			resp := checkEventLog(t, body, done.ID)
			if resp.State != apiclient.JobDone {
				t.Fatalf("events header = %+v", resp)
			}
			if len(resp.Events) != 3+2*done.ShardsTotal {
				t.Fatalf("%d events for a done job of %d shards", len(resp.Events), done.ShardsTotal)
			}
			if resp.Events[0].Kind != apiclient.EventQueued || resp.Events[1].Kind != apiclient.EventRunning {
				t.Errorf("lifecycle starts %q, %q; want queued, running", resp.Events[0].Kind, resp.Events[1].Kind)
			}
			type shard struct{ shard, slice int }
			leased, finished := map[shard]string{}, map[shard]bool{}
			for _, ev := range resp.Events[2 : len(resp.Events)-1] {
				sh := shard{ev.Shard, ev.Slice}
				switch ev.Kind {
				case apiclient.EventShardLeased:
					if ev.Detail == "" || leased[sh] != "" {
						t.Errorf("shard-leased %+v: no worker, or leased twice", ev)
					}
					leased[sh] = ev.Detail
				case apiclient.EventShardDone:
					if leased[sh] != ev.Detail || finished[sh] {
						t.Errorf("shard-done %+v: leased to %q, done already %v", ev, leased[sh], finished[sh])
					}
					finished[sh] = true
				default:
					t.Errorf("unexpected %q event mid-job", ev.Kind)
				}
			}
			if len(finished) != done.ShardsTotal {
				t.Errorf("%d shards leased then done, want %d", len(finished), done.ShardsTotal)
			}

			// A cache-hit resubmission records under its own job id.
			_, dup := submit(t, ts, spec)
			status, body = get(t, ts, "/v1/jobs/"+dup.ID+"/events")
			if status != http.StatusOK {
				t.Fatalf("GET dup events = %d", status)
			}
			if resp := checkEventLog(t, body, dup.ID); len(resp.Events) != 1 || resp.Events[0].Kind != apiclient.EventCacheHit {
				t.Errorf("cache-hit job events = %+v", resp.Events)
			}
		})
	}
}

// checkEventLog decodes a GET /v1/jobs/{id}/events body and holds it to
// what every log promises: its events are job id's, seq counts them
// from 0, and the state is the one the last event leads to — a done
// job's log ends with done (or is a cache hit), a failed one's with
// failed, a running one's has started and not ended. It reports with
// Errorf, so readers on other goroutines may call it.
func checkEventLog(t testing.TB, body []byte, id string) apiclient.JobEvents {
	t.Helper()
	var log apiclient.JobEvents
	if err := json.Unmarshal(body, &log); err != nil {
		t.Errorf("events body %q: %v", body, err)
		return log
	}
	if log.ID != id {
		t.Errorf("events body for %s carries id %q", id, log.ID)
	}
	running := false
	for i, ev := range log.Events {
		if ev.Seq != i || ev.Job != id {
			t.Errorf("event %d of %s is %+v", i, id, ev)
		}
		running = running || ev.Kind == apiclient.EventRunning
	}
	last := ""
	if n := len(log.Events); n > 0 {
		last = log.Events[n-1].Kind
	}
	ended := last == apiclient.EventDone || last == apiclient.EventFailed || last == apiclient.EventCacheHit
	var agrees bool
	switch log.State {
	case apiclient.JobDone:
		agrees = last == apiclient.EventDone || last == apiclient.EventCacheHit
	case apiclient.JobFailed:
		agrees = last == apiclient.EventFailed
	case apiclient.JobRunning:
		agrees = running && !ended
	case apiclient.JobQueued:
		agrees = !running && !ended
	}
	if !agrees {
		t.Errorf("job %s is %s but its log ends %q (%d events)", id, log.State, last, len(log.Events))
	}
	return log
}

// TestJobEventLogOutlivesOtherJobs: a job's log is its own. After more
// later jobs than a 4 096-event ring shared by every job would hold, a
// finished job's timeline reads back byte for byte and still ends done.
func TestJobEventLogOutlivesOtherJobs(t *testing.T) {
	srv, ts := newTestServer(t)
	first := driveJob(t, ts, testSpec)
	path := "/v1/jobs/" + first.ID + "/events"
	_, before := get(t, ts, path)
	checkEventLog(t, before, first.ID)

	spec, err := campaign.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4097; i++ {
		if view, created, err := srv.mgr.Submit(spec); err != nil || created || !view.Cached {
			t.Fatalf("resubmission %d = %+v, created %v, %v; want a cache hit", i, view, created, err)
		}
	}
	_, after := get(t, ts, path)
	if !bytes.Equal(after, before) {
		t.Fatalf("%s's log changed under 4097 later jobs:\nbefore %s\nafter  %s", first.ID, before, after)
	}
}

// TestJobEventsTrackState reads a distributed job's log and its
// snapshot over and over while two workers run it (run it under
// -race): every log body counts seq up and agrees with its own state,
// and once a snapshot reads the job ended, the log read after it ends
// the same way.
func TestJobEventsTrackState(t *testing.T) {
	srv, ts := newPoolServer(t, Config{}, 0)
	serve := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	status, job := submit(t, ts, `{"spec": 1, "scale": "small", "traces": 2, "seed": 2015, "stride": 0,
		"slices_per_vantage": 2, "execution": "distributed"}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	var workers, readers sync.WaitGroup
	stop := make(chan struct{})
	for _, id := range []string{"w1", "w2"} {
		workers.Add(1)
		go func() {
			defer workers.Done()
			if _, err := worker.Run(context.Background(), worker.Config{
				Client: apiclient.New(ts.URL), ID: id, ExitWhenIdle: true,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				var view apiclient.Job
				if err := json.Unmarshal(serve("/v1/jobs/"+job.ID), &view); err != nil {
					t.Error(err)
					return
				}
				log := checkEventLog(t, serve("/v1/jobs/"+job.ID+"/events"), job.ID)
				if view.State == apiclient.JobDone || view.State == apiclient.JobFailed {
					if log.State != view.State {
						t.Errorf("the job read %s, then its log read %s", view.State, log.State)
					}
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	readers.Wait()
	if done := awaitDone(t, ts, job.ID); done.ShardsTotal != 26 {
		t.Errorf("job has %d shards, want 26", done.ShardsTotal)
	}
}

// TestHealthzReadiness checks the enriched probe: build info fields,
// store probing, and queue accounting that counts every running job —
// a distributed one waiting for workers included — as the gauge does.
func TestHealthzReadiness(t *testing.T) {
	_, ts := newTestServer(t)
	if status, _ := submit(t, ts, pinnedSpec(campaign.ScenarioUncongested, campaign.ExecutionDistributed)); status != http.StatusAccepted {
		t.Fatalf("distributed submit status = %d", status)
	}
	status, body := get(t, ts, "/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d: %s", status, body)
	}
	h := decodeHealth(t, body)
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if !h.StoreWritable {
		t.Error("temp-dir store reported unwritable")
	}
	if h.GoVersion == "" {
		t.Error("no go_version from build info")
	}
	if h.QueueCap != maxQueuedJobs {
		t.Errorf("queue_cap = %d, want %d", h.QueueCap, maxQueuedJobs)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
	_, metrics := get(t, ts, "/v1/metrics")
	if h.JobsRunning != 1 || h.QueueDepth != 0 || !strings.Contains(string(metrics), "repro_jobs_running 1\n") {
		t.Errorf("jobs_running = %d, queue_depth = %d with one distributed job open; want 1, 0 and the gauge at 1",
			h.JobsRunning, h.QueueDepth)
	}
}

// decodeHealth decodes a healthz body strictly into apiclient.Health
// and fails unless encoding it again gives the same bytes: the schema
// type is the body, key for key, omitempty for omitempty.
func decodeHealth(t *testing.T, body []byte) apiclient.Health {
	t.Helper()
	var h apiclient.Health
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body) {
		t.Fatalf("healthz body re-encodes differently:\nserved %s\nagain  %s", body, again.Bytes())
	}
	return h
}

// TestPprofGating: the profile routes exist only when asked for.
func TestPprofGating(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir(), EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, _ := get(t, ts, "/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("pprof enabled: /debug/pprof/cmdline = %d", status)
	}

	_, tsOff := newTestServer(t)
	if status, _ := get(t, tsOff, "/debug/pprof/cmdline"); status == http.StatusOK {
		t.Error("pprof routes mounted without EnablePprof")
	}
}

// TestRequestLogging: the middleware emits one structured record per
// request with method, path, status and — on job routes — the job id.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu chanWriter
	mu.buf = &buf
	logger := slog.New(slog.NewJSONHandler(&mu, nil))
	srv, err := New(Config{DataDir: t.TempDir(), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get(t, ts, "/v1/jobs/j-999999")

	var found bool
	for _, line := range strings.Split(mu.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "request" {
			continue
		}
		found = true
		if rec["method"] != "GET" || rec["path"] != "/v1/jobs/j-999999" ||
			rec["status"] != float64(404) || rec["job"] != "j-999999" {
			t.Errorf("request record = %v", rec)
		}
		if _, ok := rec["duration"]; !ok {
			t.Error("request record has no duration")
		}
	}
	if !found {
		t.Error("no request log record emitted")
	}
}

// chanWriter serializes concurrent handler writes into one buffer.
type chanWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *chanWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *chanWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
