package worker_test

// In-process wedged-worker e2e: one worker claims a batch and
// heartbeats forever without executing (workertest.Batch.Hold), so its
// leases never lapse — only straggler speculation can finish those
// shards. The job must still complete with the canonical dataset
// bytes, and the speculative twins must have won both wedged shards.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/internal/worker/workertest"
)

func TestWedgedWorkerSpeculation(t *testing.T) {
	// A long TTL keeps the wedged worker's leases alive for the whole
	// test (its heartbeats extend them anyway), so the job can finish
	// only by speculation: the wedged shards are re-exposed once they
	// have straggled past a few typical shard durations.
	srv, err := server.New(server.Config{
		DataDir:  t.TempDir(),
		LeaseTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	client := apiclient.New(ts.URL)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}

	// The wedged worker goes first so it definitely owns a batch before
	// the healthy worker drains the pool.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wedged, err := workertest.Claim(ctx, client, job.ID, "wedged", 2)
	if err != nil {
		t.Fatal(err)
	}
	wedgeDone := make(chan error, 1)
	go func() { wedgeDone <- wedged.Hold(wctx) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		shards, err := client.Shards(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		leased := 0
		for _, s := range shards {
			if s.Worker == "wedged" && s.State == "leased" {
				leased++
			}
		}
		if leased == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged worker never claimed its batch (%d leased)", leased)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The healthy worker drains the pending pool, then its claims pick
	// up speculative twins of the wedged shards and win the race.
	healthyDone := make(chan worker.Stats, 1)
	go func() {
		stats, _ := worker.Run(wctx, worker.Config{
			Client: client, ID: "healthy", Batch: 4, Poll: 50 * time.Millisecond,
		})
		healthyDone <- stats
	}()

	awaitCtx, stop := context.WithTimeout(ctx, 2*time.Minute)
	defer stop()
	final, err := client.AwaitJob(awaitCtx, job.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	if final.State != apiclient.JobDone {
		t.Fatalf("job state = %s, want done via speculation", final.State)
	}

	// Byte identity: the dataset must match the in-process engine no
	// matter which worker's twin won each shard.
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
	var want bytes.Buffer
	if err := dataset.Write(&want, res.Dataset); err != nil {
		t.Fatal(err)
	}
	served, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("dataset (%d bytes) differs from campaign.Run (%d bytes)", len(served), want.Len())
	}

	// Both wedged shards were won by speculative twins.
	text := metricsText(t, srv)
	won := regexp.MustCompile(`(?m)^repro_speculation_total\{event="won"\} (\d+)$`).FindStringSubmatch(text)
	if won == nil {
		t.Fatal("/v1/metrics has no speculation won series")
	}
	if n, _ := strconv.Atoi(won[1]); n < 2 {
		t.Fatalf("speculation won = %d, want >= 2", n)
	}

	cancel()
	<-wedgeDone
	<-healthyDone
}
