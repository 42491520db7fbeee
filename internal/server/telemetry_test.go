package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// TestMetricsEndpoints runs a job and checks both expositions carry
// the key series: HTTP traffic, job lifecycle, engine counters.
func TestMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
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
		`repro_sim_events_total{sched="wheel"}`,
		"repro_campaign_traces_completed_total",
		"# TYPE repro_campaign_shard_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	status, body = get(t, ts, "/v1/metrics.json")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics.json = %d", status)
	}
	var doc struct {
		Metrics []telemetry.Sample `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	found := false
	for _, s := range doc.Metrics {
		if s.Name == "repro_campaign_shards_completed_total" && s.Uint > 0 {
			found = true
		}
	}
	if !found {
		t.Error("metrics.json has no completed-shards counter > 0")
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

// TestJobEventsEndpoint replays a finished job's event ring: whoever
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
			var resp struct {
				ID     string            `json:"id"`
				State  JobState          `json:"state"`
				Events []telemetry.Event `json:"events"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.ID != done.ID || resp.State != JobDone {
				t.Fatalf("events header = %+v", resp)
			}
			if len(resp.Events) != 3+2*done.ShardsTotal {
				t.Fatalf("%d events for a done job of %d shards", len(resp.Events), done.ShardsTotal)
			}
			if resp.Events[0].Kind != "queued" || resp.Events[1].Kind != "running" {
				t.Errorf("lifecycle starts %q, %q; want queued, running", resp.Events[0].Kind, resp.Events[1].Kind)
			}
			if last := resp.Events[len(resp.Events)-1]; last.Kind != "done" {
				t.Errorf("lifecycle ends %q, want done", last.Kind)
			}
			type shard struct{ shard, slice int }
			leased, finished := map[shard]string{}, map[shard]bool{}
			for _, ev := range resp.Events[2 : len(resp.Events)-1] {
				sh := shard{ev.Shard, ev.Slice}
				switch ev.Kind {
				case "shard-leased":
					if ev.Detail == "" || leased[sh] != "" {
						t.Errorf("shard-leased %+v: no worker, or leased twice", ev)
					}
					leased[sh] = ev.Detail
				case "shard-done":
					if leased[sh] != ev.Detail || finished[sh] {
						t.Errorf("shard-done %+v: leased to %q, done already %v", ev, leased[sh], finished[sh])
					}
					finished[sh] = true
				default:
					t.Errorf("unexpected %q event mid-job", ev.Kind)
				}
				if ev.Job != done.ID {
					t.Errorf("event for job %q leaked into %q's timeline", ev.Job, done.ID)
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
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Events) != 1 || resp.Events[0].Kind != "cache-hit" {
				t.Errorf("cache-hit job events = %+v", resp.Events)
			}
		})
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
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
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
