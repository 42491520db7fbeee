package worker_test

// Fault-injection tests: the worker's retry/backoff machinery driven
// through the chaos proxy against a real coordinator. Faults fire on
// deterministic request counters, so every run exercises the same
// drops, delays and duplicates.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/internal/worker/chaos"
)

// directDataset is the in-process oracle for distSpec.
func directDataset(t *testing.T) []byte {
	t.Helper()
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
	var buf bytes.Buffer
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerThroughChaosProxy: every 3rd request is severed and every
// 4th delayed, yet the worker drains the job to the exact bytes the
// in-process engine produces — the drops become transparent retries.
func TestWorkerThroughChaosProxy(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &chaos.Proxy{
		Target:     target,
		DropEvery:  3,
		DelayEvery: 4,
		Delay:      20 * time.Millisecond,
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	ctx := context.Background()
	direct := apiclient.New(ts.URL)
	job, _, err := direct.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}

	stats, err := worker.Run(ctx, worker.Config{
		Client:       apiclient.New(front.URL),
		ID:           "chaos-w",
		Batch:        4,
		ExitWhenIdle: true,
		MaxRetries:   20,
		RetryBase:    10 * time.Millisecond,
		RetryCap:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != job.ShardsTotal {
		t.Fatalf("worker stats = %+v, want all %d shards accepted", stats, job.ShardsTotal)
	}
	if stats.Retries == 0 {
		t.Fatalf("worker stats = %+v: the proxy dropped requests but nothing retried", stats)
	}

	done, err := direct.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiclient.JobDone {
		t.Fatalf("job through chaos = %+v, want done", done)
	}
	served, err := direct.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directDataset(t); !bytes.Equal(served, want) {
		t.Fatalf("dataset through chaos (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), len(want))
	}
}

// TestDuplicatedUploadsAbsorbed: every upload is forwarded twice (the
// ambiguous failure — request applied, response lost, client re-sends).
// The coordinator's first-writer-wins dedup acks the visible send as
// "duplicate", progress counts each shard once, and the dataset is
// unchanged.
func TestDuplicatedUploadsAbsorbed(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &chaos.Proxy{Target: target, DupEvery: 1}
	front := httptest.NewServer(proxy)
	defer front.Close()

	ctx := context.Background()
	direct := apiclient.New(ts.URL)
	duped := apiclient.New(front.URL)

	job, _, err := direct.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := direct.Claim(ctx, job.ID, "w1", 1000)
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
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range claim.Shards {
		wire, err := campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice)
		if err != nil {
			t.Fatal(err)
		}
		wire.SpecHash = claim.SpecHash
		ack, err := duped.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wire)
		if err != nil {
			t.Fatal(err)
		}
		// The shadow send applied first; the visible one is its replay.
		if ack.Status != apiclient.ResultDuplicate {
			t.Fatalf("upload shard %d through dup proxy = %+v, want duplicate ack", sh.Index, ack)
		}
	}
	done, err := direct.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiclient.JobDone || done.ShardsDone != done.ShardsTotal {
		t.Fatalf("job after duplicated uploads = %+v, want done with each shard counted once", done)
	}
	served, err := direct.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directDataset(t); !bytes.Equal(served, want) {
		t.Fatalf("dataset after duplicated uploads differs from campaign.Run")
	}
}
