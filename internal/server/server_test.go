package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/campaign/goldentest"
	"repro/internal/dataset"
)

// testSpec is the small, fast campaign every test submits: one trace
// per vantage, no traceroutes, fixed seed.
const testSpec = `{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0}`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newPoolServer(t, Config{}, runtime.GOMAXPROCS(0))
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, apiclient.Job) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return resp.StatusCode, apiclient.Job{}
	}
	var view apiclient.Job
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return resp.StatusCode, view
}

func awaitDone(t *testing.T, ts *httptest.Server, id string) apiclient.Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view apiclient.Job
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case apiclient.JobDone:
			return view
		case apiclient.JobFailed:
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return apiclient.Job{}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// counter reads one counter off the /v1/metrics text exposition: the
// series called name whose one label value is label ("" for an
// unlabelled series).
func counter(t *testing.T, ts *httptest.Server, name, label string) uint64 {
	t.Helper()
	status, body := get(t, ts, "/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", status)
	}
	series := regexp.QuoteMeta(name)
	if label != "" {
		series += `\{[a-z_]+="` + regexp.QuoteMeta(label) + `"\}`
	}
	m := regexp.MustCompile(`(?m)^` + series + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("/v1/metrics has no series %s{%s}", name, label)
	}
	n, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSubmitPollFetchRoundTrip is the core lifecycle: submit → poll →
// fetch. The served dataset must be byte-identical to what campaign.Run
// produces for the same spec, and the report's determinism hash must
// match the bytes actually served.
func TestSubmitPollFetchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	status, view := submit(t, ts, testSpec)
	if status != http.StatusAccepted {
		t.Fatalf("fresh submit status = %d, want 202", status)
	}
	if view.ID == "" || view.Key == "" || view.Cached {
		t.Fatalf("submit view = %+v", view)
	}
	if view.ShardsTotal == 0 || view.TracesTotal == 0 {
		t.Fatalf("submit view missing plan totals: %+v", view)
	}

	done := awaitDone(t, ts, view.ID)
	if done.ShardsDone != done.ShardsTotal || done.TracesDone != done.TracesTotal {
		t.Fatalf("done job progress incomplete: %+v", done)
	}

	// Per-shard completion, the seam for remote shard claiming.
	status, body := get(t, ts, "/v1/jobs/"+view.ID+"/shards")
	if status != http.StatusOK {
		t.Fatalf("shards status = %d: %s", status, body)
	}
	var shardsResp apiclient.JobShards
	if err := json.Unmarshal(body, &shardsResp); err != nil {
		t.Fatal(err)
	}
	if len(shardsResp.Shards) != done.ShardsTotal {
		t.Fatalf("shards = %d, want %d", len(shardsResp.Shards), done.ShardsTotal)
	}
	for _, sh := range shardsResp.Shards {
		if sh.State != "done" || sh.Vantage == "" {
			t.Fatalf("shard not done: %+v", sh)
		}
	}

	// The served dataset is byte-identical to a direct engine run.
	status, served := get(t, ts, "/v1/jobs/"+view.ID+"/dataset")
	if status != http.StatusOK {
		t.Fatalf("dataset status = %d", status)
	}
	spec, err := campaign.ParseSpec([]byte(testSpec))
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
	var direct bytes.Buffer
	if err := dataset.Write(&direct, res.Dataset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		t.Fatalf("served dataset (%d bytes) differs from direct campaign.Run (%d bytes)",
			len(served), direct.Len())
	}

	// The report's determinism hash matches the served bytes.
	status, body = get(t, ts, "/v1/jobs/"+view.ID+"/report")
	if status != http.StatusOK {
		t.Fatalf("report status = %d", status)
	}
	var meta apiclient.Report
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%x", sha256.Sum256(served)); meta.DatasetSHA256 != want {
		t.Fatalf("report hash %s != served bytes hash %s", meta.DatasetSHA256, want)
	}
	if meta.Traces != len(res.Dataset.Traces) || meta.Spec.Scale != "small" {
		t.Fatalf("report meta = %+v", meta)
	}

	// The job routes are the only read path: there is no key-addressed
	// one.
	for _, path := range []string{"/v1/runs", "/v1/runs/" + view.Key, "/v1/runs/" + view.Key + "/dataset"} {
		if status, _ := get(t, ts, path); status != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, status)
		}
	}
}

// TestCacheHit: resubmitting a completed spec — under any execution
// shape — returns identical bytes and the same determinism hash without
// re-simulating.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t)

	_, first := submit(t, ts, testSpec)
	awaitDone(t, ts, first.ID)
	_, bytes1 := get(t, ts, "/v1/jobs/"+first.ID+"/dataset")

	// Same campaign, different execution shape: must hit the cache.
	status, second := submit(t, ts,
		`{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0,
		  "workers": 13, "slices_per_vantage": 4, "execution": "distributed"}`)
	if status != http.StatusOK {
		t.Fatalf("cache-hit submit status = %d, want 200", status)
	}
	if !second.Cached || second.State != apiclient.JobDone {
		t.Fatalf("second submit = %+v, want cached done job", second)
	}
	if second.Key != first.Key {
		t.Fatalf("execution shape changed the cache key: %s vs %s", second.Key, first.Key)
	}

	_, bytes2 := get(t, ts, "/v1/jobs/"+second.ID+"/dataset")
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatal("cache hit served different bytes")
	}

	var meta1, meta2 apiclient.Report
	_, m1 := get(t, ts, "/v1/jobs/"+first.ID+"/report")
	_, m2 := get(t, ts, "/v1/jobs/"+second.ID+"/report")
	if err := json.Unmarshal(m1, &meta1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(m2, &meta2); err != nil {
		t.Fatal(err)
	}
	if meta1.DatasetSHA256 != meta2.DatasetSHA256 {
		t.Fatal("cache hit changed the determinism hash")
	}

	if n := counter(t, ts, "repro_jobs_total", "started"); n != 1 {
		t.Fatalf("runs started = %d, want 1 (cache must not re-simulate)", n)
	}
	if hits, submitted := counter(t, ts, "repro_store_requests_total", "hit"),
		counter(t, ts, "repro_jobs_total", "submitted"); hits != 1 || submitted != 2 {
		t.Fatalf("store hits = %d, submitted = %d; want 1, 2", hits, submitted)
	}
}

// TestMalformedSpec: structured 400s in the unified envelope, with
// stable codes and field-level errors.
func TestMalformedSpec(t *testing.T) {
	_, ts := newTestServer(t)

	post := func(body string) (int, apiclient.ErrorEnvelope) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope apiclient.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, envelope
	}

	// Out-of-vocabulary values: every bad field reported.
	status, envelope := post(`{"spec": 1, "scale": "galactic", "scenario": "congested", "workers": -1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if envelope.Error.Code != apiclient.CodeSpecInvalid || envelope.Error.Message == "" {
		t.Fatalf("invalid-spec envelope = %+v", envelope)
	}
	fields := map[string]bool{}
	for _, f := range envelope.Error.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"scale", "scenario", "workers"} {
		if !fields[want] {
			t.Errorf("field %q missing from error %+v", want, envelope)
		}
	}

	// Unknown field: named in the error, not silently dropped.
	status, envelope = post(`{"spec": 1, "scale": "small", "tracez": 5}`)
	if status != http.StatusBadRequest || len(envelope.Error.Fields) != 1 ||
		envelope.Error.Fields[0].Field != "tracez" {
		t.Fatalf("unknown-field response: %d %+v", status, envelope)
	}

	// Not JSON at all: still the envelope, but bad_request — the body
	// never parsed far enough to be an invalid spec.
	status, envelope = post(`this is not json`)
	if status != http.StatusBadRequest || envelope.Error.Code != apiclient.CodeBadRequest {
		t.Fatalf("non-JSON response: %d %+v", status, envelope)
	}

	// A plan that selects no vantages.
	status, envelope = post(`{"spec": 1, "scale": "small", "trace_plan": {"Perkins home": 0}}`)
	if status != http.StatusBadRequest || envelope.Error.Code != apiclient.CodeSpecInvalid {
		t.Fatalf("empty-plan response: %d %+v", status, envelope)
	}

	// The differential oracles are not on the spec: naming one is an
	// unknown field like any other typo.
	for _, knob := range []string{"scheduler", "xtraffic"} {
		status, envelope = post(`{"scale": "small", "` + knob + `": "heap"}`)
		if status != http.StatusBadRequest || len(envelope.Error.Fields) != 1 ||
			envelope.Error.Fields[0].Field != knob {
			t.Fatalf("%s response: %d %+v", knob, status, envelope)
		}
	}

	// Counts that would spin the shard planner or overflow the epoch
	// clock are refused by validation — on the handler goroutine, so the
	// 400 must come back at once, not after the plan was computed.
	for field, body := range map[string]string{
		"slices_per_vantage": `{"scale":"small","traces":2,"slices_per_vantage":300000000}`,
		"traces":             `{"scale":"small","traces":15250}`,
	} {
		start := time.Now()
		status, envelope = post(body)
		if status != http.StatusBadRequest || envelope.Error.Code != apiclient.CodeSpecInvalid ||
			len(envelope.Error.Fields) != 1 || envelope.Error.Fields[0].Field != field {
			t.Fatalf("oversized %s response: %d %+v", field, status, envelope)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("oversized %s took %v to refuse", field, d)
		}
	}

	// Nothing should have been queued.
	if submitted, started := counter(t, ts, "repro_jobs_total", "submitted"),
		counter(t, ts, "repro_jobs_total", "started"); submitted != 0 || started != 0 {
		t.Fatalf("invalid specs reached the job manager: %d submitted, %d started", submitted, started)
	}
}

// TestConcurrentSubmissionsRunOnce: many clients racing the same spec
// cause exactly one simulation; everyone gets the same key and the
// same bytes.
func TestConcurrentSubmissionsRunOnce(t *testing.T) {
	_, ts := newTestServer(t)

	const clients = 8
	views := make([]apiclient.Job, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
				bytes.NewBufferString(testSpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&views[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	var sets []string
	for i, v := range views {
		if v.Key != views[0].Key {
			t.Fatalf("client %d got key %s, want %s", i, v.Key, views[0].Key)
		}
		sets = append(sets, v.ID)
	}
	_ = sets

	// Whichever job each client landed on, every dataset read converges
	// to the same bytes.
	var ref []byte
	for _, v := range views {
		awaitDone(t, ts, v.ID)
		_, b := get(t, ts, "/v1/jobs/"+v.ID+"/dataset")
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatal("clients saw different datasets")
		}
	}

	if n := counter(t, ts, "repro_jobs_total", "started"); n != 1 {
		t.Fatalf("runs started = %d, want 1 for %d identical submissions", n, clients)
	}
	if n := counter(t, ts, "repro_jobs_total", "submitted"); n != clients {
		t.Fatalf("submitted = %d, want %d", n, clients)
	}
}

// TestStoreReopen: a new server over the same data dir serves previous
// runs from disk (the cache survives restarts).
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()

	srv1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	_, first := submit(t, ts1, testSpec)
	awaitDone(t, ts1, first.ID)
	_, bytes1 := get(t, ts1, "/v1/jobs/"+first.ID+"/dataset")
	ts1.Close()
	srv1.Close()

	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()

	status, second := submit(t, ts2, testSpec)
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("restart lost the cache: status=%d view=%+v", status, second)
	}
	_, bytes2 := get(t, ts2, "/v1/jobs/"+second.ID+"/dataset")
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatal("reopened store served different bytes")
	}
}

// TestStoreQuarantinesDamagedEntry: a filed entry damaged on disk — its
// dataset cut short, or its meta.json unreadable — is not served after
// a restart: the store moves it under quarantine/ and logs it, and a
// resubmission of its spec runs again and files the golden table's
// hash.
func TestStoreQuarantinesDamagedEntry(t *testing.T) {
	spec := pinnedSpec(campaign.ScenarioUncongested, campaign.ExecutionLocal)
	pinned := goldentest.Small(t, campaign.ScenarioUncongested).Dataset
	for _, row := range []struct {
		name   string
		damage func(entry string, meta apiclient.Report) error
	}{
		{"truncated-dataset", func(entry string, meta apiclient.Report) error {
			return os.Truncate(filepath.Join(entry, datasetFile), meta.DatasetBytes/2)
		}},
		{"unparsable-meta", func(entry string, _ apiclient.Report) error {
			return os.WriteFile(filepath.Join(entry, metaFile), []byte("{"), 0o644)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			srv1, err := New(Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(srv1)
			_, first := submit(t, ts1, spec)
			awaitDone(t, ts1, first.ID)
			meta := jobReport(t, ts1, first.ID)
			ts1.Close()
			srv1.Close()
			entry := filepath.Join(dir, meta.Key[:2], meta.Key)
			if err := row.damage(entry, meta); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			srv2, err := New(Config{DataDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(srv2)
			_, second := submit(t, ts2, spec)
			if second.Cached {
				t.Fatal("the damaged entry was served as a cache hit")
			}
			awaitDone(t, ts2, second.ID)
			if got := jobReport(t, ts2, second.ID).DatasetSHA256; got != pinned {
				t.Errorf("resubmission filed %s, want the golden table's %s", got, pinned)
			}
			ts2.Close()
			srv2.Close()
			if moved, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*", meta.Key)); len(moved) != 1 {
				t.Errorf("quarantine holds %v, want the damaged entry once", moved)
			}
			if !strings.Contains(logs.String(), "store entry quarantined") {
				t.Errorf("no quarantine record in the log:\n%s", logs.String())
			}
		})
	}
}

// TestUnfinishedDataset: asking for a queued/running job's dataset is a
// 409, not a hang or a 500.
func TestUnfinishedDataset(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// Two submissions with one worker: the second is parked in the
	// queue while the first runs, so its dataset cannot exist yet.
	_, a := submit(t, ts, testSpec)
	_, b := submit(t, ts, `{"spec": 1, "scale": "small", "traces": 1, "seed": 99, "stride": 0}`)
	status, _ := get(t, ts, "/v1/jobs/"+b.ID+"/dataset")
	if status != http.StatusConflict {
		t.Fatalf("unfinished dataset status = %d, want 409", status)
	}
	awaitDone(t, ts, a.ID)
	awaitDone(t, ts, b.ID)

	if status, _ := get(t, ts, "/v1/jobs/nope/dataset"); status != http.StatusNotFound {
		t.Fatalf("missing job status = %d, want 404", status)
	}

	// A done job whose run is gone from the store is a 404 run_not_found
	// on both artifact routes.
	if err := os.RemoveAll(srv.store.path(a.Key)); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/dataset", "/report"} {
		status, body := get(t, ts, "/v1/jobs/"+a.ID+route)
		if status != http.StatusNotFound || !bytes.Contains(body, []byte(`"code": "run_not_found"`)) {
			t.Errorf("%s of a removed run = %d %s, want 404 run_not_found", route, status, body)
		}
	}
}
