package main

// End-to-end: real reprod processes — coordinators, workers, clients —
// driven from Go over loopback HTTP. Every row must file the pinned
// dataset bytes whatever the execution shape: a local job, workers that
// crash or wedge, a coordinator killed mid-upload, a hostile network, a
// SIGTERM drain. The children are this test binary re-executed as
// reprod (TestMain), so the harness needs no separate build.
//
//	go test -run TestEndToEnd -v ./cmd/reprod

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/worker"
	"repro/internal/worker/chaos"
	"repro/internal/worker/workertest"
)

// childEnv marks a re-executed test binary as the reprod command.
const childEnv = "REPROD_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	localSpec = `{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0}`
	distSpec  = `{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0,"execution":"distributed"}`
	// pinnedSHA256 is both specs' dataset hash: cmd/determinism's first
	// line for the uncongested scenario (EXPERIMENTS.md).
	pinnedSHA256 = "81e2952878d5e0990abb0094d3f50769437b0837021e33a770418fe8fdbe0fa8"
	// patience bounds every wait; -race children are several times slower.
	patience = 2 * time.Minute
)

func TestEndToEnd(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T, ctx context.Context, want string)
	}{
		{"service", e2eService},
		{"distributed", e2eDistributed},
		{"crash", e2eCrash},
		{"chaos", e2eChaos},
		{"drain", e2eDrain},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(t.Context(), patience)
			defer cancel()
			row.run(t, ctx, referenceHash(t))
		})
	}
}

func TestUnknownCommand(t *testing.T) {
	if code := reprod(t, "", "bogus").wait(t); code != 2 {
		t.Fatalf("reprod bogus exited %d, want 2", code)
	}
}

// e2eService: a local job over HTTP, its cache hit, the flight recorder,
// and reprod run (inline spec) as a typed-client cache hit.
func e2eService(t *testing.T, ctx context.Context, want string) {
	c := serve(t, t.TempDir(), "")
	job, created, err := c.SubmitRaw(ctx, []byte(localSpec))
	if err != nil || !created {
		t.Fatalf("cold submit = created %v, %v", created, err)
	}
	if _, err := c.AwaitJob(ctx, job.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	shards, err := c.Shards(ctx, job.ID)
	if err != nil || len(shards) == 0 {
		t.Fatalf("job shards = %d, %v", len(shards), err)
	}
	for _, s := range shards {
		if s.State != "done" {
			t.Fatalf("shard %+v not done", s)
		}
	}
	cold := c.dataset(t, ctx, job.ID, want)
	if rep, err := c.JobReport(ctx, job.ID); err != nil || rep.DatasetSHA256 != want {
		t.Fatalf("report hash = %q, %v; want %s", rep.DatasetSHA256, err, want)
	}

	hit, created, err := c.SubmitRaw(ctx, []byte(localSpec))
	if err != nil || created || !hit.Cached || hit.State != apiclient.JobDone {
		t.Fatalf("resubmission = %+v created %v, %v; want a done cache hit", hit, created, err)
	}
	if warm := c.dataset(t, ctx, hit.ID, want); !bytes.Equal(warm, cold) {
		t.Fatal("cache hit served different bytes")
	}

	// Two submissions, one run simulated, one store hit, nothing in
	// flight; the engine's counters flushed; the middleware saw both.
	m := c.metrics(t, ctx)
	m.eq(t, `repro_jobs_total{event="submitted"}`, 2)
	m.eq(t, `repro_jobs_total{event="started"}`, 1)
	m.eq(t, `repro_jobs_total{event="done"}`, 1)
	m.eq(t, `repro_store_requests_total{result="hit"}`, 1)
	m.eq(t, "repro_jobs_running", 0)
	m.eq(t, "repro_campaign_shards_running", 0)
	ok := m.get(t, `repro_campaign_shards_completed_total{result="ok"}`)
	if ok <= 0 {
		t.Fatal("no shard completed on the engine's counters")
	}
	m.eq(t, "repro_campaign_shard_duration_seconds_count", ok)
	m.positive(t, `repro_sim_events_total{sched="wheel"}`)
	m.positive(t, "repro_campaign_traces_completed_total")
	m.eq(t, `repro_http_requests_total{route="POST /v1/campaigns",code_class="2xx"}`, 2)

	var events struct {
		ID     string
		Events []struct{ Kind, Job string }
	}
	c.getJSON(t, ctx, "/v1/jobs/"+job.ID+"/events", &events)
	kinds := make([]string, len(events.Events))
	for i, e := range events.Events {
		kinds[i] = e.Kind
		if e.Job != job.ID {
			t.Fatalf("event %+v filed under job %s", e, job.ID)
		}
	}
	leased, done := count(kinds, "shard-leased"), count(kinds, "shard-done")
	if len(kinds) < 3 || kinds[0] != "queued" || kinds[1] != "running" || kinds[len(kinds)-1] != "done" ||
		leased == 0 || leased != done {
		t.Fatalf("job events = %v, want queued, running, N × shard-leased/shard-done, done", kinds)
	}

	// The loopback workers are on the scoreboard, in good standing.
	if w := c.worker(t, ctx, "local"); w == nil || w.Strikes != 0 || w.Accepted == 0 {
		t.Fatalf("/v1/workers local = %+v, want listed with accepted shards and no strikes", w)
	}

	out := filepath.Join(t.TempDir(), "dataset.jsonl")
	run := reprod(t, "", "run", "-coordinator", c.url, "-spec", localSpec, "-out", out)
	if code := run.wait(t); code != 0 {
		t.Fatalf("reprod run exited %d", code)
	}
	if got := readFile(t, out); !bytes.Equal(got, cold) {
		t.Fatal("reprod run fetched different bytes")
	}
	run.report(t, want)
	m = c.metrics(t, ctx)
	m.eq(t, `repro_jobs_total{event="started"}`, 1)
	m.eq(t, `repro_store_requests_total{result="hit"}`, 2)
}

// e2eDistributed: reprod run (-spec @file) awaits a distributed job; a
// worker claims four shards, lands one and vanishes; once its leases
// lapse a reprod worker drains the job.
func e2eDistributed(t *testing.T, ctx context.Context, want string) {
	c := serve(t, t.TempDir(), "", "-lease-ttl", "2s")
	dir := t.TempDir()
	spec, out := filepath.Join(dir, "spec.json"), filepath.Join(dir, "dataset.jsonl")
	if err := os.WriteFile(spec, []byte(distSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	run := reprod(t, "", "run", "-coordinator", c.url, "-spec", "@"+spec, "-out", out)
	job := run.jobID(t)

	w1, err := workertest.Claim(ctx, c.Client, job, "w1", 4)
	if err != nil || len(w1.Shards) != 4 {
		t.Fatalf("w1 claim = %d shards, %v; want 4", len(w1.Shards), err)
	}
	if acks, err := w1.Upload(ctx, 1); err != nil || acks[0].Status != "accepted" {
		t.Fatalf("w1 upload = %+v, %v; want accepted", acks, err)
	}
	var health struct {
		JobsRunning int `json:"jobs_running"`
	}
	c.getJSON(t, ctx, "/v1/healthz", &health)
	if health.JobsRunning < 1 {
		t.Fatalf("healthz jobs_running = %d with a distributed job open", health.JobsRunning)
	}

	// w1 is gone; its three other leases lapse on the coordinator clock.
	time.Sleep(time.Until(w1.Shards[3].ExpiresAt) + 100*time.Millisecond)
	w2 := reprod(t, "", "worker", "-coordinator", c.url, "-id", "w2", "-batch", "4", "-exit-when-idle")
	if code := w2.wait(t); code != 0 {
		t.Fatalf("worker w2 exited %d", code)
	}
	if code := run.wait(t); code != 0 {
		t.Fatalf("reprod run exited %d", code)
	}
	if got := sha(readFile(t, out)); got != want {
		t.Fatalf("distributed dataset hash %s, want %s", got, want)
	}
	shards := float64(run.report(t, want).Shards)

	// Every shard accepted exactly once despite the crash, which left
	// leases to expire and be re-issued; both workers left duration
	// samples; the coordinator merged and never simulated.
	m := c.metrics(t, ctx)
	m.eq(t, `repro_shard_results_total{result="accepted"}`, shards)
	if g := m.get(t, `repro_lease_events_total{event="grant"}`); g <= shards {
		t.Fatalf("lease grants = %v, want > %v shards", g, shards)
	}
	m.positive(t, `repro_lease_events_total{event="expire"}`)
	m.positive(t, `repro_lease_events_total{event="reissue"}`)
	m.positive(t, `repro_worker_shard_duration_seconds_count{worker="w1"}`)
	m.positive(t, `repro_worker_shard_duration_seconds_count{worker="w2"}`)
	m.eq(t, `repro_jobs_total{event="started"}`, 1)
	m.eq(t, `repro_jobs_total{event="done"}`, 1)
	if v := m["repro_campaign_shard_duration_seconds_count"]; v != 0 {
		t.Fatalf("coordinator simulated %v shards in-process", v)
	}
}

// e2eCrash: a failpoint kills the coordinator (exit 137) the instant
// the first result is journaled; a restart on the same data dir and
// address replays the journal while two reprod workers ride through on
// retries.
func e2eCrash(t *testing.T, ctx context.Context, want string) {
	data := t.TempDir()
	// The TTL outlasts the restart window: a worker whose heartbeats
	// fail for a full TTL abandons the shard it is executing.
	c1 := serve(t, data, "REPRO_FAILPOINT="+failpoint.AcceptResultAfterJournal, "-lease-ttl", "5s")
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if wals := journals(t, data); len(wals) != 1 || wals[0] != job.ID+".wal" {
		t.Fatalf("journal/ holds %v for in-flight job %s, want exactly %s.wal", wals, job.ID, job.ID)
	}
	intruder := reprod(t, "", "serve", "-addr", "127.0.0.1:0", "-data", data)
	if code := intruder.wait(t); code == 0 || !strings.Contains(intruder.stderr.String(), filepath.Join(data, "LOCK")) {
		t.Fatalf("second coordinator on the live data dir exited %d without naming the lock", code)
	}

	var workers []*proc
	for _, id := range []string{"w1", "w2"} {
		workers = append(workers, reprod(t, "", "worker", "-coordinator", c1.url, "-id", id,
			"-batch", "2", "-poll", "100ms", "-retry-max", "40", "-retry-base", "100ms", "-retry-cap", "1s"))
	}
	if code := c1.wait(t); code != 137 {
		t.Fatalf("doomed coordinator exited %d, want 137", code)
	}

	c2 := serve(t, data, "", "-lease-ttl", "5s", "-addr", c1.addr)
	if !strings.Contains(c2.stderr.String(), "replaying coordinator journal") {
		t.Fatal("restarted coordinator did not replay the journal")
	}
	if _, err := c2.AwaitJob(ctx, job.ID, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c2.dataset(t, ctx, job.ID, want)

	retries := 0
	for _, w := range workers {
		retries += w.stop(t).Retries
	}
	if retries == 0 {
		t.Fatal("no worker recorded a retry across the coordinator crash")
	}
	// The restarted process resumed the job with the journaled result
	// restored, started it once, and the journal went with the filed run.
	m := c2.metrics(t, ctx)
	m.eq(t, `repro_recovery_jobs_total{outcome="resumed"}`, 1)
	m.positive(t, "repro_recovery_shards_total")
	m.eq(t, `repro_jobs_total{event="started"}`, 1)
	if wals := journals(t, data); len(wals) != 0 {
		t.Fatalf("journal files survived a completed run: %v", wals)
	}
}

// e2eChaos: reprod run (-spec on stdin) awaits a distributed job; a
// wedged worker holds two shards and heartbeats forever while two
// reprod workers reach the coordinator only through a chaos proxy. The
// job completes by speculation and the straggler is quarantined.
func e2eChaos(t *testing.T, ctx context.Context, want string) {
	c := serve(t, t.TempDir(), "", "-lease-ttl", "3s", "-speculate-after", "1.5", "-quarantine-threshold", "2")
	target, err := url.Parse(c.url)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(&chaos.Proxy{
		Target: target, DropEvery: 7, DelayEvery: 5, Delay: 100 * time.Millisecond, DupEvery: 9,
	})
	t.Cleanup(front.Close)

	out := filepath.Join(t.TempDir(), "dataset.jsonl")
	run := reprodStdin(t, distSpec, "", "run", "-coordinator", c.url, "-spec", "-", "-out", out)
	job := run.jobID(t)

	wedged, err := workertest.Claim(ctx, c.Client, job, "wedged", 2)
	if err != nil || len(wedged.Shards) != 2 {
		t.Fatalf("wedged claim = %d shards, %v; want 2", len(wedged.Shards), err)
	}
	holdCtx, release := context.WithCancel(ctx)
	held := make(chan error, 1)
	go func() { held <- wedged.Hold(holdCtx) }()
	t.Cleanup(func() { release(); <-held })

	var workers []*proc
	for _, id := range []string{"w1", "w2"} {
		workers = append(workers, reprod(t, "", "worker", "-coordinator", front.URL, "-id", id, "-batch", "4", "-poll", "100ms"))
	}
	if code := run.wait(t); code != 0 {
		t.Fatalf("reprod run exited %d", code)
	}
	if got := sha(readFile(t, out)); got != want {
		t.Fatalf("chaos dataset hash %s, want %s", got, want)
	}
	run.report(t, want)
	for _, w := range workers {
		w.stop(t)
	}

	// The wedged shards were re-exposed and the healthy twins won; each
	// loss was a strike, and two benched the straggler.
	m := c.metrics(t, ctx)
	m.atLeast(t, `repro_speculation_total{event="issued"}`, 2)
	m.atLeast(t, `repro_speculation_total{event="won"}`, 2)
	m.positive(t, `repro_worker_health_events_total{event="quarantine"}`)
	if w := c.worker(t, ctx, "wedged"); w == nil || w.State != "quarantined" || w.SpeculationLosses < 2 {
		t.Fatalf("/v1/workers wedged = %+v, want quarantined with >= 2 speculation losses", w)
	}
}

// e2eDrain: SIGTERM while a local job is in flight. The coordinator
// finishes and files the job, exits 0, and a restart serves the spec
// as a cache hit with nothing to recover.
func e2eDrain(t *testing.T, ctx context.Context, want string) {
	data := t.TempDir()
	c1 := serve(t, data, "")
	if _, _, err := c1.SubmitRaw(ctx, []byte(localSpec)); err != nil {
		t.Fatal(err)
	}
	if err := c1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c1.wait(t); code != 0 {
		t.Fatalf("drained coordinator exited %d, want 0", code)
	}
	log := c1.stderr.String()
	if drain, done := strings.Index(log, "shutting down"), strings.Index(log, "msg=\"job done\""); drain < 0 || done < drain {
		t.Fatalf("want the job done after the drain began (drain at %d, done at %d)", drain, done)
	}

	c2 := serve(t, data, "")
	hit, created, err := c2.SubmitRaw(ctx, []byte(localSpec))
	if err != nil || created || !hit.Cached || hit.State != apiclient.JobDone {
		t.Fatalf("resubmission after drain = %+v created %v, %v; want a done cache hit", hit, created, err)
	}
	c2.dataset(t, ctx, hit.ID, want)
	for name, v := range c2.metrics(t, ctx) {
		if strings.HasPrefix(name, "repro_recovery_jobs_total") && v != 0 {
			t.Fatalf("%s = %v after a clean drain", name, v)
		}
	}
	if wals := journals(t, data); len(wals) != 0 {
		t.Fatalf("journal files after a clean drain: %v", wals)
	}
}

// referenceHash is the in-process engine's dataset hash for the specs,
// which must also be the pinned one.
func referenceHash(t *testing.T) string {
	t.Helper()
	h, err := reference()
	if err != nil {
		t.Fatal(err)
	}
	if h != pinnedSHA256 {
		t.Fatalf("campaign.Run dataset hash %s, want pinned %s", h, pinnedSHA256)
	}
	return h
}

var reference = sync.OnceValues(func() (string, error) {
	spec, err := campaign.ParseSpec([]byte(localSpec))
	if err != nil {
		return "", err
	}
	cfg, err := spec.Config()
	if err != nil {
		return "", err
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		return "", err
	}
	return sha(buf.Bytes()), nil
})

// proc is one reprod child process.
type proc struct {
	cmd            *exec.Cmd
	stdout, stderr syncBuffer
	exited         chan struct{}
	code           int
}

// reprod starts the reprod command with args and extra environment.
func reprod(t *testing.T, env string, args ...string) *proc {
	return reprodStdin(t, "", env, args...)
}

func reprodStdin(t *testing.T, stdin, env string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(os.Args[0], args...), exited: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	if env != "" {
		p.cmd.Env = append(p.cmd.Env, env)
	}
	p.cmd.Stdin = strings.NewReader(stdin)
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		p.code = p.cmd.ProcessState.ExitCode()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
		if t.Failed() {
			t.Logf("reprod %s (exit %d) stderr:\n%s", strings.Join(args, " "), p.code, p.stderr.String())
		}
	})
	return p
}

// wait returns the process's exit code.
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.exited:
		return p.code
	case <-time.After(patience):
		t.Fatalf("reprod %v still running after %v", p.cmd.Args[1:], patience)
		return 0
	}
}

// stop SIGTERMs a reprod worker, which must exit 0, and decodes the
// stats it prints.
func (p *proc) stop(t *testing.T) worker.Stats {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	if code := p.wait(t); code != 0 {
		t.Fatalf("reprod %v exited %d", p.cmd.Args[1:], code)
	}
	var stats worker.Stats
	if err := json.Unmarshal(p.stdout.Bytes(), &stats); err != nil {
		t.Fatalf("worker stats %q: %v", p.stdout.Bytes(), err)
	}
	return stats
}

// logged waits for a line of the process's stderr to match re and
// returns the submatches.
func (p *proc) logged(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	deadline := time.Now().Add(patience)
	for {
		if m := re.FindStringSubmatch(p.stderr.String()); m != nil {
			return m
		}
		select {
		case <-p.exited:
			t.Fatalf("reprod %v exited %d before logging %s", p.cmd.Args[1:], p.code, re)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("reprod %v never logged %s", p.cmd.Args[1:], re)
		}
	}
}

var runJobRE = regexp.MustCompile(`reprod run: job (\S+) `)

// jobID is the job a reprod run submitted.
func (p *proc) jobID(t *testing.T) string { return p.logged(t, runJobRE)[1] }

// report decodes the run report reprod run prints; its hash must be want.
func (p *proc) report(t *testing.T, want string) apiclient.Report {
	t.Helper()
	var rep apiclient.Report
	if err := json.Unmarshal(p.stdout.Bytes(), &rep); err != nil || rep.DatasetSHA256 != want {
		t.Fatalf("reprod run report hash %q (%v), want %s", rep.DatasetSHA256, err, want)
	}
	return rep
}

// coordinator is a reprod serve child and a client for it.
type coordinator struct {
	*proc
	*apiclient.Client
	addr, url string
}

var servingRE = regexp.MustCompile(`msg=serving addr=(\S+)`)

// serve starts a coordinator on a free loopback port (a later -addr in
// flags overrides it) and waits for it to listen.
func serve(t *testing.T, data, env string, flags ...string) *coordinator {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data", data}, flags...)
	p := reprod(t, env, args...)
	addr := p.logged(t, servingRE)[1]
	return &coordinator{proc: p, Client: apiclient.New("http://" + addr), addr: addr, url: "http://" + addr}
}

// dataset fetches a done job's dataset, which must hash to want.
func (c *coordinator) dataset(t *testing.T, ctx context.Context, job, want string) []byte {
	t.Helper()
	data, err := c.JobDataset(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != want {
		t.Fatalf("job %s dataset hash %s, want %s", job, got, want)
	}
	return data
}

// worker is one /v1/workers entry, nil if unlisted.
func (c *coordinator) worker(t *testing.T, ctx context.Context, id string) *apiclient.Worker {
	t.Helper()
	workers, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workers {
		if workers[i].ID == id {
			return &workers[i]
		}
	}
	return nil
}

// getJSON decodes a GET the typed client has no method for.
func (c *coordinator) getJSON(t *testing.T, ctx context.Context, path string, v any) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// metrics scrapes /v1/metrics: series (name plus labels) → value.
func (c *coordinator) metrics(t *testing.T, ctx context.Context) metricSet {
	t.Helper()
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

type metricSet map[string]float64

func (m metricSet) get(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := m[series]
	if !ok {
		t.Fatalf("missing series %s", series)
	}
	return v
}

func (m metricSet) eq(t *testing.T, series string, want float64) {
	t.Helper()
	if v := m.get(t, series); v != want {
		t.Fatalf("%s = %v, want %v", series, v, want)
	}
}

func (m metricSet) atLeast(t *testing.T, series string, min float64) {
	t.Helper()
	if v := m.get(t, series); v < min {
		t.Fatalf("%s = %v, want >= %v", series, v, min)
	}
}

func (m metricSet) positive(t *testing.T, series string) { t.Helper(); m.atLeast(t, series, 1) }

// journals lists the data dir's write-ahead journal files.
func journals(t *testing.T, data string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(data, "journal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func count(xs []string, x string) int {
	n := 0
	for _, v := range xs {
		if v == x {
			n++
		}
	}
	return n
}

// syncBuffer is a bytes.Buffer a child's output copier writes while the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Clone(s.b.Bytes())
}

func (s *syncBuffer) String() string { return string(s.Bytes()) }
