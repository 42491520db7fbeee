package server_test

// Worker health scoreboard tests: strikes from lease expiries
// quarantine a worker (claims refused 429 + Retry-After), the window
// lapses into probation, and an accepted upload restores full health.
// Plus the submit-side admission watermark.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/server"
)

// newTunedServer is newLeaseServer with config overrides applied
// before New.
func newTunedServer(t *testing.T, mod func(*server.Config)) (*apiclient.Client, *fakeClock) {
	t.Helper()
	fc := newFakeClock()
	cfg := server.Config{
		DataDir:  t.TempDir(),
		LeaseTTL: 30 * time.Second,
		Clock:    fc.Now,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return apiclient.New(ts.URL), fc
}

// findWorker pulls one scoreboard row by ID.
func findWorker(t *testing.T, client *apiclient.Client, id string) apiclient.Worker {
	t.Helper()
	workers, err := client.Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if w.ID == id {
			return w
		}
	}
	t.Fatalf("worker %s not on scoreboard (%d rows)", id, len(workers))
	return apiclient.Worker{}
}

// TestWorkerQuarantineLifecycle walks the full state machine: three
// lease expiries quarantine, the window lapses into probation, and an
// accepted upload readmits with strikes cleared.
func TestWorkerQuarantineLifecycle(t *testing.T) {
	_, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}

	// wBad abandons three leases; the sweep on wGood's next claim
	// charges all three strikes at once.
	claim, err := client.Claim(ctx, job.ID, "wBad", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(claim.Shards) != 3 {
		t.Fatalf("claim = %d shards, want 3", len(claim.Shards))
	}
	fc.Advance(31 * time.Second)
	if _, err := client.Claim(ctx, job.ID, "wGood", 1); err != nil {
		t.Fatal(err)
	}

	_, err = client.Claim(ctx, job.ID, "wBad", 1)
	wantCode(t, err, http.StatusTooManyRequests, "worker_quarantined")
	if ae := err.(*apiclient.APIError); ae.RetryAfter <= 0 {
		t.Fatalf("quarantine Retry-After = %d, want positive", ae.RetryAfter)
	}
	row := findWorker(t, client, "wBad")
	if row.State != "quarantined" || row.LeaseExpiries != 3 || row.QuarantinedUntil == nil {
		t.Fatalf("wBad = %+v, want quarantined with 3 lease expiries", row)
	}

	// Window lapses (4 lease TTLs): the next claim is admitted on
	// probation, and its accepted upload restores full health.
	fc.Advance(4*30*time.Second + time.Second)
	probe, err := client.Claim(ctx, job.ID, "wBad", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Shards) != 1 {
		t.Fatalf("probation claim = %d shards, want 1", len(probe.Shards))
	}
	if row := findWorker(t, client, "wBad"); row.State != "probation" {
		t.Fatalf("wBad state = %s, want probation", row.State)
	}
	wires := execWires(t, distSpec, probe.SpecHash)
	s := probe.Shards[0]
	if ack, err := client.PushShardResult(ctx, job.ID, s.Index, "wBad", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("probation upload = %v %v, want accepted", ack, err)
	}
	if row := findWorker(t, client, "wBad"); row.State != "healthy" || row.Strikes != 0 {
		t.Fatalf("wBad after probation upload = %+v, want healthy with 0 strikes", row)
	}
}

// TestProbationStrikeRequarantines: a strike earned while on probation
// sends the worker straight back to quarantine — probation is one
// chance, not a clean slate.
func TestProbationStrikeRequarantines(t *testing.T) {
	_, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Claim(ctx, job.ID, "wBad", 3); err != nil {
		t.Fatal(err)
	}
	fc.Advance(31 * time.Second)
	if _, err := client.Claim(ctx, job.ID, "wGood", 1); err != nil {
		t.Fatal(err)
	}
	_, err = client.Claim(ctx, job.ID, "wBad", 1)
	wantCode(t, err, http.StatusTooManyRequests, "worker_quarantined")

	// Probation claim... then wBad lets that lease lapse too.
	fc.Advance(4*30*time.Second + time.Second)
	if _, err := client.Claim(ctx, job.ID, "wBad", 1); err != nil {
		t.Fatal(err)
	}
	fc.Advance(31 * time.Second)
	if _, err := client.Claim(ctx, job.ID, "wGood", 1); err != nil {
		t.Fatal(err)
	}
	_, err = client.Claim(ctx, job.ID, "wBad", 1)
	wantCode(t, err, http.StatusTooManyRequests, "worker_quarantined")
}

// TestSubmitAdmissionControl: past the open-shard watermark, brand-new
// runs shed with 429 overloaded + Retry-After, while joins of an
// already-running spec are still served — dedup never sheds.
func TestSubmitAdmissionControl(t *testing.T) {
	client, _ := newTunedServer(t, func(cfg *server.Config) {
		cfg.MaxOpenShards = 5
	})
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
	wantCode(t, err, http.StatusTooManyRequests, "overloaded")
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
		if ack, err := client.PushShardResult(ctx, job.ID, s.Index, "w1", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
			t.Fatalf("upload %d = %v %v, want accepted", s.Index, ack, err)
		}
	}
	if _, created, err := client.SubmitRaw(ctx, []byte(other)); err != nil || !created {
		t.Fatalf("post-drain submit = created %v err %v, want created", created, err)
	}
}
