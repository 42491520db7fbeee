package server

// Tests for the single job lifecycle: a local job is a distributed job
// whose workers are loopback goroutines, so everything observable —
// bytes, report, events, shard rows, histograms — must agree between
// the two executions, and the lease table's remote-only behaviour
// (expiry, speculation, HTTP claims) must leave local jobs alone.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/campaign/goldentest"
	"repro/internal/dataset"
	"repro/internal/worker"
)

var executions = []string{campaign.ExecutionLocal, campaign.ExecutionDistributed}

// pinnedSpec is the golden table's small spec (goldentest) under one
// scenario and execution; without the sweep (stride 0) it files the
// same dataset.
func pinnedSpec(scenario, execution string) string {
	return fmt.Sprintf(`{"spec": 1, "scale": "small", "traces": 2, "seed": 2015, "stride": 0,
		"scenario": %q, "execution": %q}`, scenario, execution)
}

// newPoolServer starts a server on cfg (a temp data dir when it names
// none) with the loopback pool's size pinned.
func newPoolServer(t *testing.T, cfg Config, loopbacks int) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := newServer(cfg, loopbacks)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// driveJob submits spec and sees the job through: a distributed job
// gets one remote worker, a local one needs nothing.
func driveJob(t *testing.T, ts *httptest.Server, spec string) apiclient.Job {
	t.Helper()
	status, view := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if view.Spec.Execution == campaign.ExecutionDistributed {
		if _, err := worker.Run(context.Background(), worker.Config{
			Client: apiclient.New(ts.URL), ID: "w1", ExitWhenIdle: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return awaitDone(t, ts, view.ID)
}

// directMeta is campaign.Run's Result for spec, reported the way the
// coordinator reports a filed run — everything but the key, the spec,
// and when and how long.
func directMeta(t *testing.T, specJSON string) apiclient.Report {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		t.Fatal(err)
	}
	meta := apiclient.Report{
		DatasetSHA256:      fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())),
		DatasetBytes:       int64(buf.Len()),
		Traces:             len(res.Dataset.Traces),
		Servers:            len(res.Servers),
		Shards:             len(res.Shards),
		Events:             res.Events,
		PhantomEvents:      res.PhantomEvents,
		ReplayedBoundaries: res.ReplayedBoundaries,
	}
	if len(res.Congestion) > 0 {
		rep := analysis.ComputeCEMarkReport(res.Congestion)
		meta.Congestion = &rep
	}
	return meta
}

// directHash is the SHA-256 of campaign.Run's dataset for spec.
func directHash(t *testing.T, specJSON string) string {
	t.Helper()
	return directMeta(t, specJSON).DatasetSHA256
}

func jobReport(t *testing.T, ts *httptest.Server, id string) apiclient.Report {
	t.Helper()
	status, body := get(t, ts, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("report status = %d: %s", status, body)
	}
	var meta apiclient.Report
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestExecutionsAgree: where a job's shards ran changes nothing about
// what is filed — same dataset bytes, same report — and what is filed
// is campaign.Run's: local and distributed jobs share the coordinator's
// merge (campaign.MergeHeaders for the report, writeDataset for the
// bytes), so only the engine's own Result can catch a bug in it.
func TestExecutionsAgree(t *testing.T) {
	for _, scenario := range []string{campaign.ScenarioUncongested, campaign.ScenarioCongestedTransit} {
		t.Run(scenario, func(t *testing.T) {
			pinned := goldentest.Small(t, scenario).Dataset
			var data [2][]byte
			var meta [2]apiclient.Report
			for i, execution := range executions {
				_, ts := newTestServer(t)
				view := driveJob(t, ts, pinnedSpec(scenario, execution))
				_, data[i] = get(t, ts, "/v1/jobs/"+view.ID+"/dataset")
				meta[i] = jobReport(t, ts, view.ID)
				if meta[i].Spec.Execution != execution {
					t.Fatalf("report spec execution = %q, want %q", meta[i].Spec.Execution, execution)
				}
				// What may differ: when and how long, and the knob itself.
				meta[i].WallSeconds, meta[i].CompletedAt, meta[i].Spec.Execution = 0, time.Time{}, ""
			}
			if !bytes.Equal(data[0], data[1]) {
				t.Fatalf("local dataset (%d bytes) differs from distributed (%d bytes)", len(data[0]), len(data[1]))
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data[0])); got != pinned {
				t.Errorf("dataset hash %s, want the golden table's %s", got, pinned)
			}
			local, _ := json.Marshal(meta[0])
			dist, _ := json.Marshal(meta[1])
			if !bytes.Equal(local, dist) {
				t.Errorf("reports differ:\nlocal       %s\ndistributed %s", local, dist)
			}
			if (meta[0].Congestion != nil) != (scenario != campaign.ScenarioUncongested) || meta[0].Events == 0 {
				t.Errorf("report = %s", local)
			}
			direct := directMeta(t, pinnedSpec(scenario, campaign.ExecutionLocal))
			direct.Key, direct.Spec = meta[0].Key, meta[0].Spec
			if run, _ := json.Marshal(direct); !bytes.Equal(local, run) {
				t.Errorf("the filed report differs from campaign.Run's:\nfiled        %s\ncampaign.Run %s", local, run)
			}
		})
	}
}

// TestLocalJobOnTheLeaseTable: a local job's shards are leased to the
// one loopback identity and show up everywhere a remote worker's would
// — the shard rows and the per-worker histogram.
func TestLocalJobOnTheLeaseTable(t *testing.T) {
	_, ts := newTestServer(t)
	_, view := submit(t, ts, `{"spec": 1, "scale": "small", "traces": 4, "seed": 2015, "stride": 0,
		"slices_per_vantage": 4}`)
	shardRows := func() (apiclient.JobState, []apiclient.Shard) {
		_, body := get(t, ts, "/v1/jobs/"+view.ID+"/shards")
		var resp apiclient.JobShards
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.State, resp.Shards
	}
	for state := apiclient.JobQueued; state != apiclient.JobDone; {
		var rows []apiclient.Shard
		state, rows = shardRows()
		for _, sh := range rows {
			switch {
			case sh.State == "pending" && sh.Worker == "":
			case (sh.State == "leased" || sh.State == "done") && sh.Worker == localWorker:
			default:
				t.Fatalf("shard row %+v: want pending, or leased/done by %q", sh, localWorker)
			}
		}
		if state == apiclient.JobFailed {
			t.Fatal("job failed")
		}
	}
	done := awaitDone(t, ts, view.ID)

	_, metrics := get(t, ts, "/v1/metrics")
	for _, want := range []string{
		fmt.Sprintf(`repro_worker_shard_duration_seconds_count{worker=%q} %d`, localWorker, done.ShardsTotal),
		fmt.Sprintf(`repro_lease_events_total{event="grant"} %d`, done.ShardsTotal),
		fmt.Sprintf(`repro_campaign_shards_completed_total{result="ok"} %d`, done.ShardsTotal),
	} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
}

// TestLoopbackLeaseNeverLapses drives the loopback steps by hand on a
// pool of zero goroutines and a fake clock: a granted local shard
// outlives any number of TTLs, is never twinned however long it
// straggles, cannot be claimed over HTTP, and counts as a running job.
func TestLoopbackLeaseNeverLapses(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2015, 10, 28, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	srv, ts := newPoolServer(t, Config{Clock: clock, LeaseTTL: 30 * time.Second}, 0)
	m := srv.mgr

	// An empty pool sizes no executors; the spec asks for the one the
	// test goroutine uses.
	const spec = `{"scale": "small", "traces": 1, "seed": 2015, "stride": 0, "workers": 1}`
	_, view := submit(t, ts, spec)
	if view.State != apiclient.JobQueued {
		t.Fatalf("local job is %s before its first grant, want queued", view.State)
	}
	step := func() (*job, *localRun, *campaign.Executor, apiclient.ClaimedShard, *campaign.ShardResultWire) {
		j, run, ex, c := m.nextLocal()
		ex, wire, err := run.execute(ex, c)
		if err != nil {
			t.Fatal(err)
		}
		wire.Stats.Elapsed = 50 * time.Millisecond
		return j, run, ex, c, wire
	}
	// One accepted shard seeds the duration baseline speculation needs.
	j, run, ex, c, wire := step()
	m.landLocal(j, run, ex, c, wire, nil)
	if got, _ := m.Get(view.ID); got.State != apiclient.JobRunning || got.ShardsDone != 1 {
		t.Fatalf("after one shard: %+v", got)
	}

	j, run, ex, c, wire = step()
	mu.Lock()
	now = now.Add(10 * 30 * time.Second)
	mu.Unlock()
	m.mu.Lock()
	m.sweepExpiredLocked(j, clock())
	twin := m.speculationDueLocked(j, c.Index, clock())
	row := j.shards[c.Index]
	m.mu.Unlock()
	if row.State != "leased" || row.Worker != localWorker || twin {
		t.Fatalf("ten TTLs on: shard %+v, speculation due %v; want still leased to %q, never twinned", row, twin, localWorker)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs/"+view.ID+"/shards/claim", "application/json",
		strings.NewReader(`{"worker": "w1", "max_shards": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	var fault apiclient.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&fault)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || fault.Error.Code != apiclient.CodeJobNotDistributed {
		t.Fatalf("HTTP claim on a local job = %d %+v, want 409 %s", resp.StatusCode, fault, apiclient.CodeJobNotDistributed)
	}
	if _, body := get(t, ts, "/v1/healthz"); decodeHealth(t, body).JobsRunning != 1 {
		t.Errorf("healthz = %s, want jobs_running 1", body)
	}

	m.landLocal(j, run, ex, c, wire, nil)
	for i := 2; i < view.ShardsTotal; i++ {
		j, run, ex, c, wire = step()
		m.landLocal(j, run, ex, c, wire, nil)
	}
	if got, _ := m.Get(view.ID); got.State != apiclient.JobDone {
		t.Fatalf("job = %+v, want done", got)
	}
	if got, want := jobReport(t, ts, view.ID).DatasetSHA256, directHash(t, spec); got != want {
		t.Errorf("hand-driven job filed %s, campaign.Run gives %s", got, want)
	}
}

// TestCloseFinishesLocalJobs: Close returns only once every submitted
// local job is filed.
func TestCloseFinishesLocalJobs(t *testing.T) {
	srv, err := newServer(Config{DataDir: t.TempDir()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	var keys []string
	for seed := 1; seed <= 3; seed++ {
		_, view := submit(t, ts, fmt.Sprintf(`{"scale": "small", "traces": 1, "seed": %d, "stride": 0}`, seed))
		keys = append(keys, view.Key)
	}
	ts.Close()
	srv.Close()
	for _, key := range keys {
		if !srv.Store().Has(key) {
			t.Errorf("run %.12s not filed when Close returned", key)
		}
	}
}

// TestAbortMidLocalJob: Abort returns with the job unfinished and
// nothing filed, and the next coordinator on the data dir runs a
// resubmission from scratch.
func TestAbortMidLocalJob(t *testing.T) {
	const spec = `{"scale": "small", "traces": 8, "seed": 5, "stride": 0, "slices_per_vantage": 8, "workers": 1}`
	dir := t.TempDir()
	srv, err := newServer(Config{DataDir: dir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	_, view := submit(t, ts, spec)
	for {
		got, _ := srv.mgr.Get(view.ID)
		if got.ShardsDone > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	srv.Abort()
	if got, _ := srv.mgr.Get(view.ID); got.State != apiclient.JobRunning || got.ShardsDone == got.ShardsTotal {
		t.Fatalf("aborted job = %+v, want running and unfinished", got)
	}
	if srv.Store().Has(view.Key) {
		t.Fatal("aborted job was filed")
	}

	_, ts2 := newPoolServer(t, Config{DataDir: dir}, 2)
	again := driveJob(t, ts2, spec)
	if again.Cached || again.Key != view.Key {
		t.Fatalf("resubmission after abort = %+v, want a cold run of %.12s", again, view.Key)
	}
}

// TestOverlappingLocalJobs: two local jobs share a two-goroutine pool;
// each owns at most its `workers` worlds, and both file what
// campaign.Run computes.
func TestOverlappingLocalJobs(t *testing.T) {
	_, ts := newPoolServer(t, Config{}, 2)
	var specs, ids []string
	for seed := 11; seed <= 12; seed++ {
		spec := fmt.Sprintf(`{"scale": "small", "traces": 4, "seed": %d, "stride": 0,
			"slices_per_vantage": 4, "workers": 2}`, seed)
		_, view := submit(t, ts, spec)
		specs, ids = append(specs, spec), append(ids, view.ID)
	}
	for i, id := range ids {
		awaitDone(t, ts, id)
		if got, want := jobReport(t, ts, id).DatasetSHA256, directHash(t, specs[i]); got != want {
			t.Errorf("job %s filed %s, campaign.Run gives %s", id, got, want)
		}
	}
	if n := counter(t, ts, "repro_sim_worlds_total", "instantiate"); n < 2 || n > 4 {
		t.Errorf("%d worlds instantiated for two workers:2 jobs, want 2..4", n)
	}
	if _, metrics := get(t, ts, "/v1/metrics"); !strings.Contains(string(metrics), "repro_jobs_running 0\n") {
		t.Error("repro_jobs_running is not back to 0 after both jobs")
	}
}
