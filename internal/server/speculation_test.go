package server_test

// Straggler-speculation tests: a leased shard that outlives the job's
// typical duration is re-exposed as a speculative twin WITHOUT
// revoking the primary lease; the first upload wins and the loser acks
// "duplicate". All timing is stepped through the fake clock.

import (
	"context"
	"strings"
	"testing"
	"time"
)

// metricValue pulls one sample line out of the Prometheus text
// exposition, matching on the full series name including labels.
func metricValue(t *testing.T, text, series string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// TestSpeculationRaceFirstUploadWins drives the full race: worker A
// straggles on a shard, worker B receives a speculative twin, B's
// upload is accepted, and A's late original upload acks "duplicate" —
// never an error, never a second merge.
func TestSpeculationRaceFirstUploadWins(t *testing.T) {
	_, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}

	// A's first shard establishes the duration history speculation
	// needs; the forced Elapsed makes the EWMA deterministic.
	first, err := client.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, first.SpecHash)
	for _, w := range wires {
		w.Stats.Elapsed = 50 * time.Millisecond
	}
	s0 := first.Shards[0]
	if ack, err := client.PushShardResult(ctx, job.ID, s0.Index, "wA", s0.Lease, wires[s0.Index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("seed upload = %v %v, want accepted", ack, err)
	}

	// A claims one more shard and straggles: 10s elapsed dwarfs the
	// speculate-after threshold (3 × 50ms × batch 1) but stays well
	// inside A's 30s lease.
	straggle, err := client.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	sA := straggle.Shards[0]
	fc.Advance(10 * time.Second)

	// B's claim drains the pending pool and then re-exposes A's shard
	// as exactly one speculative twin.
	claimB, err := client.Claim(ctx, job.ID, "wB", 50)
	if err != nil {
		t.Fatal(err)
	}
	var spec *struct {
		index int
		lease string
	}
	regular := 0
	for _, s := range claimB.Shards {
		if s.Speculative {
			if spec != nil {
				t.Fatalf("claim B granted more than one speculative shard")
			}
			spec = &struct {
				index int
				lease string
			}{s.Index, s.Lease}
		} else {
			regular++
		}
	}
	if spec == nil || spec.index != sA.Index {
		t.Fatalf("claim B speculative = %+v, want twin of shard %d", spec, sA.Index)
	}
	if want := job.ShardsTotal - 2; regular != want {
		t.Fatalf("claim B regular shards = %d, want %d", regular, want)
	}

	// The twin token heartbeats like any lease.
	hb, err := client.Heartbeat(ctx, job.ID, spec.index, "wB", spec.lease)
	if err != nil {
		t.Fatal(err)
	}
	if !hb.ExpiresAt.After(fc.Now()) {
		t.Fatalf("spec heartbeat expires %v, want after now", hb.ExpiresAt)
	}

	// B wins the race; A's original lease is still live, and its upload
	// must ack duplicate — the work was identical bytes.
	if ack, err := client.PushShardResult(ctx, job.ID, spec.index, "wB", spec.lease, wires[spec.index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("speculative upload = %v %v, want accepted", ack, err)
	}
	if ack, err := client.PushShardResult(ctx, job.ID, sA.Index, "wA", sA.Lease, wires[sA.Index]); err != nil || ack.Status != "duplicate" {
		t.Fatalf("straggler upload = %v %v, want duplicate", ack, err)
	}

	// Drain the rest and check byte identity end to end.
	for _, s := range claimB.Shards {
		if s.Speculative {
			continue
		}
		if ack, err := client.PushShardResult(ctx, job.ID, s.Index, "wB", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
			t.Fatalf("drain upload %d = %v %v, want accepted", s.Index, ack, err)
		}
	}
	wantDatasetMatch(t, client, job.ID)

	// The scoreboard charged the straggler with the loss, and the
	// metrics narrate the race.
	workers, err := client.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if w.ID == "wA" && w.SpeculationLosses != 1 {
			t.Fatalf("wA speculation losses = %d, want 1", w.SpeculationLosses)
		}
	}
	text, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, `repro_speculation_total{event="issued"}`); got != "1" {
		t.Fatalf("speculation issued = %q, want 1", got)
	}
	if got := metricValue(t, text, `repro_speculation_total{event="won"}`); got != "1" {
		t.Fatalf("speculation won = %q, want 1", got)
	}
}

// TestSpeculationRequiresHistory: with no completed shard there is no
// "typical duration", so no amount of elapsed time triggers a twin.
func TestSpeculationRequiresHistory(t *testing.T) {
	_, client, fc := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Claim(ctx, job.ID, "wA", 1); err != nil {
		t.Fatal(err)
	}
	fc.Advance(20 * time.Second) // long elapsed, lease still live
	claimB, err := client.Claim(ctx, job.ID, "wB", 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range claimB.Shards {
		if s.Speculative {
			t.Fatalf("shard %d speculative with zero duration history", s.Index)
		}
	}
	if want := job.ShardsTotal - 1; len(claimB.Shards) != want {
		t.Fatalf("claim B = %d shards, want %d pending", len(claimB.Shards), want)
	}
}

// TestSpeculationSurvivesRestart is the recovery leg: the speculative
// grant is journaled, so after a crash the twin token still uploads
// "accepted" on the restarted coordinator and the straggler's original
// still acks "duplicate".
func TestSpeculationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, client1 := startCrashServer(t, dir, fc)
	job, _, err := client1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	first, err := client1.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, first.SpecHash)
	for _, w := range wires {
		w.Stats.Elapsed = 50 * time.Millisecond
	}
	s0 := first.Shards[0]
	if ack, err := client1.PushShardResult(ctx, job.ID, s0.Index, "wA", s0.Lease, wires[s0.Index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("seed upload = %v %v, want accepted", ack, err)
	}
	straggle, err := client1.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	sA := straggle.Shards[0]
	fc.Advance(10 * time.Second)
	claimB, err := client1.Claim(ctx, job.ID, "wB", 50)
	if err != nil {
		t.Fatal(err)
	}
	var specIdx int
	specLease := ""
	for _, s := range claimB.Shards {
		if s.Speculative {
			specIdx, specLease = s.Index, s.Lease
		}
	}
	if specLease == "" || specIdx != sA.Index {
		t.Fatalf("no speculative twin of shard %d in claim B", sA.Index)
	}

	// Crash with the race in flight; both tokens were journaled.
	crash(ts1, srv1)
	_, _, client2 := startCrashServer(t, dir, fc)

	if ack, err := client2.PushShardResult(ctx, job.ID, specIdx, "wB", specLease, wires[specIdx]); err != nil || ack.Status != "accepted" {
		t.Fatalf("post-restart speculative upload = %v %v, want accepted", ack, err)
	}
	if ack, err := client2.PushShardResult(ctx, job.ID, sA.Index, "wA", sA.Lease, wires[sA.Index]); err != nil || ack.Status != "duplicate" {
		t.Fatalf("post-restart straggler upload = %v %v, want duplicate", ack, err)
	}
	// B's pre-crash regular leases were journaled too: drain under the
	// original tokens, then check byte identity across the crash.
	for _, s := range claimB.Shards {
		if s.Speculative {
			continue
		}
		if ack, err := client2.PushShardResult(ctx, job.ID, s.Index, "wB", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
			t.Fatalf("post-restart drain %d = %v %v, want accepted", s.Index, ack, err)
		}
	}
	wantDatasetMatch(t, client2, job.ID)
}

// TestAdaptiveClaimSizing: once the EWMA says shards are slow relative
// to the lease TTL, a greedy claim is capped so the batch fits inside
// one TTL. 20s shards against a 30s TTL cap every batch at one shard.
func TestAdaptiveClaimSizing(t *testing.T) {
	_, client, _ := newLeaseServer(t)
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, first.SpecHash)
	for _, w := range wires {
		w.Stats.Elapsed = 20 * time.Second
	}
	s0 := first.Shards[0]
	if ack, err := client.PushShardResult(ctx, job.ID, s0.Index, "wA", s0.Lease, wires[s0.Index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("seed upload = %v %v, want accepted", ack, err)
	}
	greedy, err := client.Claim(ctx, job.ID, "wA", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Shards) != 1 {
		t.Fatalf("greedy claim = %d shards, want adaptive cap of 1", len(greedy.Shards))
	}
	text, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "repro_claims_capped_total"); got != "1" {
		t.Fatalf("claims capped = %q, want 1", got)
	}
}
