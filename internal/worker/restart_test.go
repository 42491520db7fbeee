package worker_test

// Coordinator-crash e2e: a worker lands part of a campaign, the
// coordinator process "dies" (the instance is abandoned, exactly what
// kill -9 leaves: a journal and nothing else), a fresh
// instance recovers from the same data directory, and a second worker
// drains the remainder. The dataset must be byte-identical to the
// in-process engine — the crash is invisible in the output.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/server"
	"repro/internal/worker"
)

func TestCoordinatorRestartMidCampaign(t *testing.T) {
	const ttl = 3 * time.Second
	dir := t.TempDir()
	ctx := context.Background()

	srv1, err := server.New(server.Config{DataDir: dir, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	c1 := apiclient.New(ts1.URL)

	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Worker A lands two shards, then abandons its batch mid-run.
	uploadThenVanish(t, c1, job.ID, "wA", 4, 2)
	// The coordinator crashes: srv1 is never Close()d, and Abort leaves
	// none of its goroutines behind on the data dir srv2 takes over.
	ts1.Close()
	srv1.Abort()

	// A fresh coordinator on the same store recovers the job from its
	// journal: worker A's accepted shards are already done, its orphaned
	// leases restored (and left to lapse on the wall clock).
	srv2, err := server.New(server.Config{DataDir: dir, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	c2 := apiclient.New(ts2.URL)

	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobRunning || got.ShardsDone != 2 {
		t.Fatalf("recovered job = state %s done %d/%d, want running with A's 2 shards kept",
			got.State, got.ShardsDone, got.ShardsTotal)
	}

	// Let A's restored leases lapse, then drain with worker B.
	time.Sleep(ttl + 200*time.Millisecond)
	statsB, err := worker.Run(ctx, worker.Config{
		Client: c2, ID: "wB", ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := job.ShardsTotal - 2; statsB.Accepted != want {
		t.Fatalf("worker B stats = %+v, want %d accepted (no re-execution of A's shards)",
			statsB, want)
	}

	done, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiclient.JobDone || done.ShardsDone != done.ShardsTotal {
		t.Fatalf("job after restart drain = %+v, want done", done)
	}
	served, err := c2.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directDataset(t); !bytes.Equal(served, want) {
		t.Fatalf("dataset across coordinator crash (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), len(want))
	}

	// The restarted process owns the recovery telemetry: the journal
	// replay restored A's two accepted shards and resumed the job.
	metrics := metricsText(t, srv2)
	if v := metricValue(t, metrics, `repro_recovery_jobs_total{outcome="resumed"}`); v != 1 {
		t.Fatalf("resumed recoveries = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "repro_recovery_shards_total"); v != 2 {
		t.Fatalf("recovered shards = %v, want 2", v)
	}
}
