package worker_test

// End-to-end worker-mode test: a real httptest coordinator with a
// short lease TTL, one worker that crashes mid-run leaving leases to
// lapse, and a second worker that drains the job. The merged dataset
// must be byte-identical to the in-process engine.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/worker"
)

const distSpec = `{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

func TestTwoWorkersWithMidRunCrash(t *testing.T) {
	// The TTL must comfortably exceed a full batch's execution time even
	// under -race and parallel-package load: a claimed shard's sibling
	// leases are not heartbeat-extended until their turn comes, and a
	// mid-batch eviction would turn an asserted "accepted" into a
	// rejection.
	const ttl = 3 * time.Second
	srv, err := server.New(server.Config{DataDir: t.TempDir(), LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	client := apiclient.New(ts.URL)
	ctx := context.Background()

	job, created, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if !created || job.State != "running" {
		t.Fatalf("submit = created %v state %s", created, job.State)
	}

	// Worker A claims a batch of four but abandons the run after two
	// accepted uploads — a stand-in for a crash, leaving two live
	// leases behind to expire.
	statsA, err := worker.Run(ctx, worker.Config{
		Client: client, ID: "wA", Batch: 4, ExitAfterResults: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Accepted != 2 || statsA.Rejected != 0 {
		t.Fatalf("worker A stats = %+v, want exactly 2 accepted", statsA)
	}

	// Let A's orphaned leases lapse, then drain the job with worker B.
	time.Sleep(ttl + 200*time.Millisecond)
	statsB, err := worker.Run(ctx, worker.Config{
		Client: client, ID: "wB", Batch: 4, ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := job.ShardsTotal - statsA.Accepted; statsB.Accepted != want || statsB.Rejected != 0 {
		t.Fatalf("worker B stats = %+v, want %d accepted", statsB, want)
	}

	done, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || done.ShardsDone != done.ShardsTotal {
		t.Fatalf("job after both workers = %+v, want done", done)
	}

	// The two-worker, mid-crash dataset must match the in-process engine
	// byte for byte.
	served, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.ParseSpec([]byte(distSpec))
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
		t.Fatalf("dataset after worker crash (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), direct.Len())
	}

	// Telemetry saw the crash: the orphaned leases expired and were
	// re-issued, and both workers left shard-duration samples.
	metrics, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, metrics, `repro_lease_events_total{event="expire"}`); v < 2 {
		t.Fatalf("lease expiries = %v, want >= 2", v)
	}
	if v := metricValue(t, metrics, `repro_lease_events_total{event="reissue"}`); v < 2 {
		t.Fatalf("lease reissues = %v, want >= 2", v)
	}
	for _, w := range []string{"wA", "wB"} {
		if !strings.Contains(metrics, `repro_worker_shard_duration_seconds_count{worker="`+w+`"}`) {
			t.Fatalf("no shard-duration histogram for worker %s in metrics:\n%s", w, metrics)
		}
	}
}

// metricValue extracts one sample value from Prometheus text
// exposition by its full name-plus-labels prefix.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in metrics:\n%s", series, text)
	return 0
}
