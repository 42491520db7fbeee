package worker_test

// In-process wedged-worker e2e: one worker claims a batch and
// heartbeats forever without executing (WedgeAfterClaim), so its
// leases never lapse — only straggler speculation can finish those
// shards, and only speculation-loss strikes can quarantine the worker.
// The job must still complete with the canonical dataset bytes, and
// the scoreboard must bench the straggler.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/worker"
)

func TestWedgedWorkerSpeculationAndQuarantine(t *testing.T) {
	// A long TTL keeps the wedged worker's leases alive for the whole
	// test (its heartbeats extend them anyway); an aggressive
	// speculate-after re-exposes its shards almost immediately once the
	// healthy worker has established the typical duration. Quarantine
	// threshold 2 matches the wedged batch size: both speculation
	// losses land, and the straggler is benched.
	srv, err := server.New(server.Config{
		DataDir:             t.TempDir(),
		LeaseTTL:            30 * time.Second,
		SpeculateAfter:      1.5,
		QuarantineThreshold: 2,
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
	wedgeDone := make(chan worker.Stats, 1)
	go func() {
		stats, _ := worker.Run(wctx, worker.Config{
			Client: client, ID: "wedged", Batch: 2, Poll: 50 * time.Millisecond,
			WedgeAfterClaim: true,
		})
		wedgeDone <- stats
	}()
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

	final, err := client.AwaitJob(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
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

	// Two speculation losses -> quarantined. The strikes land when the
	// healthy worker's winning uploads settle, so poll briefly.
	deadline = time.Now().Add(15 * time.Second)
	for {
		workers, err := client.Workers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var wedged *apiclient.Worker
		for i := range workers {
			if workers[i].ID == "wedged" {
				wedged = &workers[i]
			}
		}
		if wedged != nil && wedged.State == "quarantined" {
			if wedged.SpeculationLosses < 2 {
				t.Fatalf("wedged worker = %+v, want >= 2 speculation losses", *wedged)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged worker never quarantined: %+v", workers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	<-wedgeDone
	<-healthyDone
}
