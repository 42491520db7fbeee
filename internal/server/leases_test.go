package server_test

// Lease-semantics tests for the distributed worker protocol, driven
// end to end through the typed API client against an httptest server
// with an injected fake clock — expiry is stepped, never slept for.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/server"
)

// distSpec is the distributed twin of the in-process test campaign.
const distSpec = `{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

// fakeClock is a manually stepped monotonic time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2015, 10, 28, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newLeaseServer starts a coordinator with the fake clock and a 30s
// lease TTL, plus a typed client pointed at it.
func newLeaseServer(t *testing.T) (*server.Server, *apiclient.Client, *fakeClock) {
	t.Helper()
	fc := newFakeClock()
	srv, err := server.New(server.Config{
		DataDir:  t.TempDir(),
		LeaseTTL: 30 * time.Second,
		Clock:    fc.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, apiclient.New(ts.URL), fc
}

// execWires executes the campaign's full plan locally via the worker
// code path and returns one stamped wire result per plan index.
func execWires(t testing.TB, specJSON, specHash string) []*campaign.ShardResultWire {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(specJSON))
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
	infos := cfg.Shards()
	wires := make([]*campaign.ShardResultWire, len(infos))
	for i, info := range infos {
		w, err := campaign.ExecuteShard(cfg, bp, info.Shard, info.Slice)
		if err != nil {
			t.Fatal(err)
		}
		w.SpecHash = specHash
		wires[i] = w
	}
	return wires
}

// metricsText scrapes srv's /v1/metrics, the Prometheus text exposition.
func metricsText(t *testing.T, srv http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d\n%s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// wantCode asserts err is an APIError with the given status and stable
// code — the envelope contract, as seen through the typed client.
func wantCode(t *testing.T, err error, status int, code string) {
	t.Helper()
	ae, ok := err.(*apiclient.APIError)
	if !ok {
		t.Fatalf("error = %v (%T), want APIError %d %s", err, err, status, code)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("error = %d %s (%s), want %d %s", ae.Status, ae.Code, ae.Message, status, code)
	}
}

// TestDistributedLifecycle drives one worker identity through the full
// protocol: submit → immediate running state → claim everything →
// upload everything → job done, with the merged dataset byte-identical
// to the in-process engine and the report hash matching the bytes.
func TestDistributedLifecycle(t *testing.T) {
	_, client, _ := newLeaseServer(t)
	ctx := context.Background()

	job, created, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if !created || job.State != apiclient.JobRunning {
		t.Fatalf("distributed submit = created %v state %s, want fresh running job", created, job.State)
	}

	claim, err := client.Claim(ctx, job.ID, "w1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(claim.Shards) != job.ShardsTotal {
		t.Fatalf("claimed %d shards, want the full plan of %d", len(claim.Shards), job.ShardsTotal)
	}
	if claim.SpecHash != job.Key || claim.Spec.Execution != campaign.ExecutionDistributed {
		t.Fatalf("claim = %+v", claim)
	}
	// The whole plan is leased now; a second worker gets an empty batch.
	claim2, err := client.Claim(ctx, job.ID, "w2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(claim2.Shards) != 0 || claim2.State != apiclient.JobRunning {
		t.Fatalf("second claim = %+v, want empty running batch", claim2)
	}

	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards {
		ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wires[sh.Index])
		if err != nil {
			t.Fatalf("upload shard %d: %v", sh.Index, err)
		}
		if ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload shard %d = %+v", sh.Index, ack)
		}
	}

	done, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiclient.JobDone || done.ShardsDone != done.ShardsTotal {
		t.Fatalf("job after full upload = %+v, want done", done)
	}

	served, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := campaign.ParseSpec([]byte(distSpec))
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
		t.Fatalf("distributed dataset (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), direct.Len())
	}
	rep, err := client.JobReport(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%x", sha256.Sum256(served)); rep.DatasetSHA256 != want {
		t.Fatalf("report hash %s != served bytes hash %s", rep.DatasetSHA256, want)
	}
}

// TestLeaseExpiryReissueStaleUpload is the crash story: worker A's
// lease lapses, worker B re-claims the shard, A's late upload is
// rejected stale_result, B's lands, and B's re-send is an idempotent
// duplicate.
func TestLeaseExpiryReissueStaleUpload(t *testing.T) {
	srv, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	// A leases the entire plan, then crashes (silently stops beating).
	claimA, err := client.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(claimA.Shards) != job.ShardsTotal {
		t.Fatalf("claimed %d shards, want %d", len(claimA.Shards), job.ShardsTotal)
	}
	shA := claimA.Shards[0]

	// Before expiry nobody else can take any shard.
	if c, err := client.Claim(ctx, job.ID, "wB", 1); err != nil {
		t.Fatal(err)
	} else if len(c.Shards) != 0 {
		t.Fatalf("unexpired lease was re-issued: %+v", c.Shards)
	}

	// Past the TTL, B's claim sweeps every lapsed lease and re-issues
	// the first shard to B.
	fc.Advance(31 * time.Second)
	claimB, err := client.Claim(ctx, job.ID, "wB", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(claimB.Shards) != 1 || claimB.Shards[0].Index != shA.Index {
		t.Fatalf("re-claim = %+v, want shard %d re-issued", claimB.Shards, shA.Index)
	}
	shB := claimB.Shards[0]
	if shB.Lease == shA.Lease {
		t.Fatal("re-issued lease reused the evicted token")
	}

	wires := execWires(t, distSpec, claimA.SpecHash)

	// The evicted worker's late upload must not land.
	_, err = client.PushShardResult(ctx, job.ID, shA.Index, "wA", shA.Lease, wires[shA.Index])
	wantCode(t, err, 409, apiclient.CodeStaleResult)

	// The current holder's upload lands; re-sending it is idempotent.
	ack, err := client.PushShardResult(ctx, job.ID, shB.Index, "wB", shB.Lease, wires[shB.Index])
	if err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("holder upload = %+v, %v", ack, err)
	}
	dup, err := client.PushShardResult(ctx, job.ID, shB.Index, "wB", shB.Lease, wires[shB.Index])
	if err != nil || dup.Status != apiclient.ResultDuplicate {
		t.Fatalf("duplicate upload = %+v, %v", dup, err)
	}
	if dup.ShardsDone != ack.ShardsDone {
		t.Fatalf("duplicate changed progress: %d vs %d", dup.ShardsDone, ack.ShardsDone)
	}
	// A's token against the done shard is still stale, not duplicate.
	_, err = client.PushShardResult(ctx, job.ID, shA.Index, "wA", shA.Lease, wires[shA.Index])
	wantCode(t, err, 409, apiclient.CodeStaleResult)

	// The journal-backed metrics recorded the cycle.
	text := metricsText(t, srv)
	for _, want := range []string{
		fmt.Sprintf(`repro_lease_events_total{event="expire"} %d`, job.ShardsTotal),
		`repro_lease_events_total{event="reissue"} 1`,
		`repro_shard_results_total{result="accepted"} 1`,
		`repro_shard_results_total{result="duplicate"} 1`,
	} {
		if !contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func contains(haystack, needle string) bool {
	return bytes.Contains([]byte(haystack), []byte(needle))
}

// TestHeartbeatExtendsExactlyOneLease: beating one shard keeps that
// lease alive across the original deadline while a sibling lease from
// the same claim lapses and is re-issued.
func TestHeartbeatExtendsExactlyOneLease(t *testing.T) {
	_, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "wA", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(claim.Shards) != 2 {
		t.Fatalf("claimed %d shards, want 2", len(claim.Shards))
	}
	kept, dropped := claim.Shards[0], claim.Shards[1]

	fc.Advance(20 * time.Second)
	hb, err := client.Heartbeat(ctx, job.ID, kept.Index, "wA", kept.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if !hb.ExpiresAt.After(kept.ExpiresAt) {
		t.Fatalf("heartbeat did not extend: %v -> %v", kept.ExpiresAt, hb.ExpiresAt)
	}

	// t=40s: kept expires at t=50s, dropped expired at t=30s.
	fc.Advance(20 * time.Second)
	claimB, err := client.Claim(ctx, job.ID, "wB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, sh := range claimB.Shards {
		got[sh.Index] = true
	}
	if got[kept.Index] {
		t.Fatal("heartbeat-extended lease was re-issued")
	}
	if !got[dropped.Index] {
		t.Fatalf("lapsed sibling lease was not re-issued (got %v)", got)
	}

	// A heartbeat with a superseded token is lease_expired.
	_, err = client.Heartbeat(ctx, job.ID, dropped.Index, "wA", dropped.Lease)
	wantCode(t, err, 409, apiclient.CodeLeaseExpired)

	// A heartbeat arriving after the extended deadline evicts on the
	// spot rather than resurrecting the lease.
	fc.Advance(11 * time.Second)
	_, err = client.Heartbeat(ctx, job.ID, kept.Index, "wA", kept.Lease)
	wantCode(t, err, 409, apiclient.CodeLeaseExpired)
}

// TestWorkerProtocolGuards walks every worker-facing error path and
// asserts the envelope's stable code for each.
func TestWorkerProtocolGuards(t *testing.T) {
	srv, client, _ := newLeaseServer(t)
	ctx := context.Background()

	// Unknown job.
	_, err := client.Claim(ctx, "j-999999", "w", 1)
	wantCode(t, err, 404, apiclient.CodeJobNotFound)

	// A local-execution job's shards cannot be claimed over HTTP:
	// whatever its state, claiming is a 409.
	local, _, err := client.SubmitRaw(ctx, []byte(
		`{"spec": 1, "scale": "small", "traces": 1, "seed": 7, "stride": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Claim(ctx, local.ID, "w", 1)
	wantCode(t, err, 409, apiclient.CodeJobNotDistributed)

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	// A worker ID the upload scan cannot read — its uploads would carry
	// it escaped — gets a 400 naming worker, and no lease.
	_, err = client.Claim(ctx, job.ID, "w<3>", 1)
	wantCode(t, err, 400, apiclient.CodeBadRequest)
	if msg := err.(*apiclient.APIError).Message; !strings.Contains(msg, "worker") {
		t.Fatalf("refused claim says %q; want it to name worker", msg)
	}
	shards, err := client.Shards(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if shards[0].State != "pending" {
		t.Fatalf("after the refused claim shard 0 = %+v; want pending", shards[0])
	}

	claim, err := client.Claim(ctx, job.ID, "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	sh := claim.Shards[0]
	wires := execWires(t, distSpec, claim.SpecHash)
	good := wires[sh.Index]

	// Shard index outside the plan.
	_, err = client.Heartbeat(ctx, job.ID, 9999, "w", sh.Lease)
	wantCode(t, err, 404, apiclient.CodeShardNotFound)
	_, err = client.PushShardResult(ctx, job.ID, 9999, "w", sh.Lease, good)
	wantCode(t, err, 404, apiclient.CodeShardNotFound)

	// Wire version mismatch.
	bad := *good
	bad.Version = campaign.ShardWireVersion + 1
	_, err = client.PushShardResult(ctx, job.ID, sh.Index, "w", sh.Lease, &bad)
	wantCode(t, err, 400, apiclient.CodeResultInvalid)

	// Spec-hash guard: a result computed for some other spec.
	bad = *good
	bad.SpecHash = "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
	_, err = client.PushShardResult(ctx, job.ID, sh.Index, "w", sh.Lease, &bad)
	wantCode(t, err, 409, apiclient.CodeStaleResult)

	// Payload/coordinate mismatch: shard 1's result posted to shard 0's
	// index.
	other := claim.Shards[1]
	_, err = client.PushShardResult(ctx, job.ID, sh.Index, "w", other.Lease, wires[other.Index])
	wantCode(t, err, 400, apiclient.CodeResultInvalid)

	// Upload under a never-issued token.
	_, err = client.PushShardResult(ctx, job.ID, sh.Index, "w", "forged-token", good)
	wantCode(t, err, 409, apiclient.CodeStaleResult)

	// Unfinished artifacts and unknown resources round out the read
	// side of the envelope contract.
	_, err = client.JobDataset(ctx, job.ID)
	wantCode(t, err, 409, apiclient.CodeJobNotDone)
	_, err = client.JobReport(ctx, "j-424242")
	wantCode(t, err, 404, apiclient.CodeJobNotFound)

	_ = srv
}

// TestDistributedMergeFailureSurfaces: if filing the merged run fails,
// the job fails and artifact reads return job_failed in the envelope.
func TestDistributedMergeFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	srv, err := server.New(server.Config{DataDir: dir, Clock: fc.Now})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := apiclient.New(ts.URL)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Block the store's fan-out directory for this key with a regular
	// file, so the final Put cannot create it.
	if err := os.WriteFile(filepath.Join(dir, job.Key[:2]), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}

	claim, err := client.Claim(ctx, job.ID, "w", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards {
		if _, err := client.PushShardResult(ctx, job.ID, sh.Index, "w", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatalf("upload shard %d: %v", sh.Index, err)
		}
	}
	got, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobFailed || got.Error == "" {
		t.Fatalf("job after blocked merge = %+v, want failed", got)
	}
	if log := server.JobEventLog(t, srv, job.ID); log.Events[len(log.Events)-1].Detail != got.Error {
		t.Errorf("the failed event carries %+v, want the job's error %q", log.Events[len(log.Events)-1], got.Error)
	}
	_, err = client.JobDataset(ctx, job.ID)
	wantCode(t, err, 502, apiclient.CodeJobFailed)
}

// TestConcurrentClaimUpload races many workers over one job's lease
// table under -race: every shard is claimed and uploaded exactly once,
// the job completes, and the dataset is exact.
func TestConcurrentClaimUpload(t *testing.T) {
	_, client, _ := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claimProbe, err := client.Claim(ctx, job.ID, "probe", 0)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claimProbe.SpecHash)
	// Return the probe's shard by letting workers duplicate-upload it:
	// the probe uploads it first so the table has one done shard.
	if len(claimProbe.Shards) != 1 {
		t.Fatalf("probe claim = %d shards, want 1", len(claimProbe.Shards))
	}
	p := claimProbe.Shards[0]
	if _, err := client.PushShardResult(ctx, job.ID, p.Index, "probe", p.Lease, wires[p.Index]); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := fmt.Sprintf("racer-%d", w)
			for {
				claim, err := client.Claim(ctx, job.ID, me, 2)
				if err != nil {
					errs <- err
					return
				}
				if claim.State == apiclient.JobDone || claim.State == apiclient.JobFailed {
					return
				}
				if len(claim.Shards) == 0 {
					if claim.ShardsDone == claim.ShardsTotal {
						return
					}
					continue
				}
				for _, sh := range claim.Shards {
					ack, err := client.PushShardResult(ctx, job.ID, sh.Index, me, sh.Lease, wires[sh.Index])
					if err != nil {
						errs <- fmt.Errorf("worker %s shard %d: %w", me, sh.Index, err)
						return
					}
					if ack.Status != apiclient.ResultAccepted {
						errs <- fmt.Errorf("worker %s shard %d status %s", me, sh.Index, ack.Status)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	done, err := client.AwaitJob(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiclient.JobDone {
		t.Fatalf("job = %+v, want done", done)
	}
	served, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := campaign.ParseSpec([]byte(distSpec))
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
		t.Fatal("racing workers produced a dataset that differs from campaign.Run")
	}
}

// TestSubmitAdmissionControl: past the open-shard watermark, brand-new
// runs shed with 429 overloaded + Retry-After, while joins of an
// already-running spec are still served — dedup never sheds.
func TestSubmitAdmissionControl(t *testing.T) {
	srv, client, _ := newLeaseServer(t)
	server.SetAdmissionWatermark(srv, 5)
	ctx := context.Background()

	job, created, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil || !created {
		t.Fatalf("first submit = created %v err %v", created, err)
	}

	// Same spec: joined despite the load.
	if _, created, err := client.SubmitRaw(ctx, []byte(distSpec)); err != nil || created {
		t.Fatalf("resubmit = created %v err %v, want join", created, err)
	}

	// Different spec: shed.
	other := `{"spec": 1, "scale": "small", "traces": 1, "seed": 2016, "stride": 0,
	  "execution": "distributed"}`
	_, _, err = client.SubmitRaw(ctx, []byte(other))
	wantCode(t, err, http.StatusTooManyRequests, apiclient.CodeOverloaded)
	if ae := err.(*apiclient.APIError); ae.RetryAfter <= 0 {
		t.Fatalf("overloaded Retry-After = %d, want positive", ae.RetryAfter)
	}

	// Drain the job; completion releases the open shards and the next
	// submit is admitted.
	claim, err := client.Claim(ctx, job.ID, "w1", 50)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, s := range claim.Shards {
		if ack, err := client.PushShardResult(ctx, job.ID, s.Index, "w1", s.Lease, wires[s.Index]); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload %d = %v %v, want accepted", s.Index, ack, err)
		}
	}
	if _, created, err := client.SubmitRaw(ctx, []byte(other)); err != nil || !created {
		t.Fatalf("post-drain submit = created %v err %v, want created", created, err)
	}
}
