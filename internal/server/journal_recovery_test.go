package server_test

// Crash-recovery tests: every path through the write-ahead journal and
// the startup replay, driven end to end through the HTTP API. A
// "crash" aborts the first server instance without Close() — its
// journal is exactly what a killed process would leave — and a second
// instance is opened on the same data directory. The shared fake clock
// survives the restart, so lease expiry across the crash is stepped,
// never slept for.

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
	"repro/internal/campaign/goldentest"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/server"
)

// startCrashServer opens a coordinator on an existing data directory
// with the shared fake clock. Unlike newLeaseServer it does NOT
// register srv.Close as cleanup: tests that simulate a crash kill the
// instance with crash (journals left as-is).
// Cleanup aborts whatever is still running, so no manager goroutine
// outlives the test's temp dir.
func startCrashServer(t testing.TB, dir string, fc *fakeClock) (*server.Server, *httptest.Server, *apiclient.Client) {
	t.Helper()
	srv, err := server.New(server.Config{
		DataDir:  dir,
		LeaseTTL: 30 * time.Second,
		Clock:    fc.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { crash(ts, srv) })
	return srv, ts, apiclient.New(ts.URL)
}

// crash kills a coordinator the way a process death would: the listener
// goes away, the manager's goroutines stop, nothing marks the shutdown
// clean, and the data-dir lock is dropped for the restarted instance.
func crash(ts *httptest.Server, srv *server.Server) {
	ts.Close()
	srv.Abort()
}

// directDataset computes the in-process engine's dataset bytes for
// distSpec — the byte-identity oracle every recovery must hit.
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

func walPath(dir, jobID string) string {
	return filepath.Join(dir, "journal", jobID+".wal")
}

// walLine frames one record the way the journal does: version prefix,
// CRC-32 of the JSON, the JSON, newline.
func walLine(prefix, recordJSON string) string {
	return fmt.Sprintf("%s %08x %s\n", prefix, crc32.ChecksumIEEE([]byte(recordJSON)), recordJSON)
}

// journalFiles lists what is in the data dir's journal directory.
// gzipped is raw through gzip.
func gzipped(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// uploadJSON is the JSON apiclient uploads for res: the request struct
// through json.Marshal. uploadBody is that gzipped, the body itself.
func uploadJSON(tb testing.TB, worker, lease string, res *campaign.ShardResultWire) []byte {
	tb.Helper()
	raw, err := json.Marshal(struct {
		Worker string                    `json:"worker"`
		Lease  string                    `json:"lease"`
		Result *campaign.ShardResultWire `json:"result"`
	}{worker, lease, res})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func uploadBody(tb testing.TB, worker, lease string, res *campaign.ShardResultWire) []byte {
	tb.Helper()
	return gzipped(tb, uploadJSON(tb, worker, lease, res))
}

func journalFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// wantDatasetMatch asserts the job is done and serves exactly the
// bytes the in-process engine produces.
func wantDatasetMatch(t *testing.T, client *apiclient.Client, jobID string) {
	t.Helper()
	ctx := context.Background()
	job, err := client.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != apiclient.JobDone || job.ShardsDone != job.ShardsTotal {
		t.Fatalf("job = state %s done %d/%d, want done", job.State, job.ShardsDone, job.ShardsTotal)
	}
	served, err := client.JobDataset(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directDataset(t); !bytes.Equal(served, want) {
		t.Fatalf("recovered dataset (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), len(want))
	}
}

// TestRecoveryResumesPartialJob is the recovery matrix over how many
// shard results the crash had already journaled: none, and some. In
// every case the restarted coordinator re-exposes exactly the
// pending shards, the accepted ones are never re-executed, and the
// final dataset is byte-identical to the in-process engine.
func TestRecoveryResumesPartialJob(t *testing.T) {
	for _, tc := range []struct {
		name     string
		accepted func(total int) int
	}{
		{"zero-accepted", func(int) int { return 0 }},
		{"some-accepted", func(total int) int { return total / 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fc := newFakeClock()
			ctx := context.Background()

			srv1, ts1, c1 := startCrashServer(t, dir, fc)
			job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
			if err != nil {
				t.Fatal(err)
			}
			claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
			if err != nil {
				t.Fatal(err)
			}
			wires := execWires(t, distSpec, claim.SpecHash)
			n := tc.accepted(len(claim.Shards))
			for _, sh := range claim.Shards[:n] {
				if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
					t.Fatal(err)
				}
			}
			// However far the job got, its journal is one file.
			if got := journalFiles(t, dir); len(got) != 1 || got[0] != job.ID+".wal" {
				t.Fatalf("journal dir = %v, want exactly %s.wal", got, job.ID)
			}
			crash(ts1, srv1) // crash: no drain, journals left as they stand

			srv2, ts2, c2 := startCrashServer(t, dir, fc)
			if n := server.Counter(t, ts2, "repro_recovery_jobs_total", "resumed"); n != 1 {
				t.Fatalf("resumed recoveries = %d, want 1", n)
			}
			got, err := c2.Job(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.State != apiclient.JobRunning || got.ShardsDone != n {
				t.Fatalf("recovered job = state %s done %d, want running with %d accepted",
					got.State, got.ShardsDone, n)
			}

			// wA's restored leases still cover the pending shards until the
			// clock passes their pre-crash expiry.
			empty, err := c2.Claim(ctx, job.ID, "wB", 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(empty.Shards) != 0 {
				t.Fatalf("claim before lease expiry got %d shards, want 0 (leases restored)",
					len(empty.Shards))
			}
			fc.Advance(31 * time.Second)
			reclaim, err := c2.Claim(ctx, job.ID, "wB", 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(reclaim.Shards) != len(claim.Shards)-n {
				t.Fatalf("re-exposed %d shards, want the %d pending ones",
					len(reclaim.Shards), len(claim.Shards)-n)
			}
			for _, sh := range reclaim.Shards {
				ack, err := c2.PushShardResult(ctx, job.ID, sh.Index, "wB", sh.Lease, wires[sh.Index])
				if err != nil || ack.Status != apiclient.ResultAccepted {
					t.Fatalf("upload shard %d = %+v, %v", sh.Index, ack, err)
				}
			}
			wantDatasetMatch(t, c2, job.ID)

			text := metricsText(t, srv2)
			for _, want := range []string{
				`repro_recovery_jobs_total{outcome="resumed"} 1`,
				fmt.Sprintf("repro_recovery_shards_total %d", n),
			} {
				if !contains(text, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			// The journal is deleted once the merged run files.
			if _, err := os.Stat(walPath(dir, job.ID)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("journal still present after completed recovery: %v", err)
			}
		})
	}
}

// TestRecoveryReplaysEventLog: a coordinator that dies after some
// shards land comes back with the job's whole event log — queued,
// running, every lease grant, expiry and accepted shard, each at the
// time its record was journaled, exactly as the log read before the
// crash — and then the restart's running, seq counting on without a
// gap.
func TestRecoveryReplaysEventLog(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()
	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	push := func(worker string, sh apiclient.ClaimedShard) {
		fc.Advance(time.Second)
		if ack, err := c1.PushShardResult(ctx, job.ID, sh.Index, worker, sh.Lease, wires[sh.Index]); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload shard %d = %+v, %v", sh.Index, ack, err)
		}
	}
	for _, sh := range claim.Shards[:3] {
		push("wA", sh)
	}
	// wA's other leases lapse; wB's claim evicts them and takes two.
	fc.Advance(31 * time.Second)
	reclaim, err := c1.Claim(ctx, job.ID, "wB", 2)
	if err != nil || len(reclaim.Shards) != 2 {
		t.Fatalf("wB's claim = %+v, %v; want 2 shards", reclaim, err)
	}
	push("wB", reclaim.Shards[0])
	before := server.JobEventLog(t, srv1, job.ID)
	crash(ts1, srv1)

	counts := map[string]int{}
	for _, ev := range before.Events {
		counts[ev.Kind]++
	}
	n := len(claim.Shards)
	if counts[apiclient.EventShardLeased] != n+2 || counts[apiclient.EventShardDone] != 4 || counts[apiclient.EventLeaseExpired] != n-3 {
		t.Fatalf("log before the crash counts %v; want %d leased, 4 done, %d expired", counts, n+2, n-3)
	}
	srv2, _, _ := startCrashServer(t, dir, fc)
	after := server.JobEventLog(t, srv2, job.ID)
	if len(after.Events) != len(before.Events)+1 {
		t.Fatalf("recovered log holds %d events, want the %d before the crash and the restart", len(after.Events), len(before.Events))
	}
	for i, want := range before.Events {
		if got := after.Events[i]; got.Kind != want.Kind || got.Shard != want.Shard || got.Slice != want.Slice ||
			got.Detail != want.Detail || !got.Time.Equal(want.Time) {
			t.Errorf("recovered event %d = %+v, want %+v", i, got, want)
		}
	}
	if last := after.Events[len(before.Events)]; last.Kind != apiclient.EventRunning || !last.Time.Equal(fc.Now()) {
		t.Errorf("recovered log ends %+v, want the restart's running at %v", last, fc.Now())
	}
}

// TestRecoveryMergesReplayedBodies: a coordinator that dies holding k
// of a job's 13 uploads as the bytes it journaled comes back holding the
// journal's copies of them instead, takes the rest under the leases it
// restored, and files the golden table's uncongested hash: the merge
// splices replayed bodies exactly as it would the live ones.
func TestRecoveryMergesReplayedBodies(t *testing.T) {
	const spec = `{"spec": 1, "scale": "small", "traces": 2, "seed": 2015, "stride": 0, "execution": "distributed"}`
	pinned := goldentest.Small(t, campaign.ScenarioUncongested).Dataset
	for _, k := range []int{5, 12} {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			fc := newFakeClock()
			ctx := context.Background()
			srv1, ts1, c1 := startCrashServer(t, dir, fc)
			job, _, err := c1.SubmitRaw(ctx, []byte(spec))
			if err != nil {
				t.Fatal(err)
			}
			claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(claim.Shards) != 13 {
				t.Fatalf("plan has %d shards, want 13", len(claim.Shards))
			}
			wires := execWires(t, spec, claim.SpecHash)
			for _, sh := range claim.Shards[:k] {
				if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
					t.Fatal(err)
				}
			}
			crash(ts1, srv1)

			_, _, c2 := startCrashServer(t, dir, fc)
			for _, sh := range claim.Shards[k:] {
				if ack, err := c2.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil || ack.Status != apiclient.ResultAccepted {
					t.Fatalf("upload shard %d under its restored lease = %+v, %v", sh.Index, ack, err)
				}
			}
			data, err := c2.JobDataset(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != pinned {
				t.Fatalf("recovered job filed %s, want the pinned %s", got, pinned)
			}
		})
	}
}

// TestRecoveryOldTokenAcceptedSeqAdvances: a pre-crash worker still
// executing can land its upload on the restarted coordinator under its
// old token, and post-restart re-issues mint tokens strictly above the
// recovered seq high-water so the old token goes stale the moment the
// shard is re-leased.
func TestRecoveryOldTokenAcceptedSeqAdvances(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	crash(ts1, srv1) // crash with every shard leased, none uploaded

	_, _, c2 := startCrashServer(t, dir, fc)

	// The old token is the restored lease: an upload under it lands.
	first := claim.Shards[0]
	ack, err := c2.PushShardResult(ctx, job.ID, first.Index, "wA", first.Lease, wires[first.Index])
	if err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("pre-crash token upload = %+v, %v", ack, err)
	}

	// Expire the rest; re-issue to wB. The new tokens must differ from
	// the journaled ones (seq high-water restored), and the old token is
	// now stale.
	fc.Advance(31 * time.Second)
	reclaim, err := c2.Claim(ctx, job.ID, "wB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	old := make(map[int]string, len(claim.Shards))
	for _, sh := range claim.Shards {
		old[sh.Index] = sh.Lease
	}
	for _, sh := range reclaim.Shards {
		if sh.Lease == old[sh.Index] {
			t.Fatalf("shard %d re-issued with the pre-crash token %q", sh.Index, sh.Lease)
		}
	}
	stale := reclaim.Shards[0]
	_, err = c2.PushShardResult(ctx, job.ID, stale.Index, "wA", old[stale.Index], wires[stale.Index])
	wantCode(t, err, 409, apiclient.CodeStaleResult)

	for _, sh := range reclaim.Shards {
		if _, err := c2.PushShardResult(ctx, job.ID, sh.Index, "wB", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	wantDatasetMatch(t, c2, job.ID)
}

// TestRecoveryCompletesJournaledMerge: the crash hits after every
// shard result is journaled but before the merge files in the store
// (failpoint server.finalize:crash-before-store). The restarted
// coordinator finishes the merge itself — no worker runs again.
func TestRecoveryCompletesJournaledMerge(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	remove := failpoint.SetHook(failpoint.FinalizeBeforeStore, func() error {
		return errors.New("injected: crash before store")
	})
	defer remove()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards {
		ack, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index])
		if err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload shard %d = %+v, %v", sh.Index, ack, err)
		}
	}
	// Every result is acknowledged and journaled, but the merge was cut
	// down by the failpoint: the job never reached done.
	mid, err := c1.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State == apiclient.JobDone {
		t.Fatal("finalize failpoint did not abort the merge")
	}
	crash(ts1, srv1)
	remove()

	srv2, _, c2 := startCrashServer(t, dir, fc)
	wantDatasetMatch(t, c2, job.ID)
	server.JobEventLog(t, srv2, job.ID)
	text := metricsText(t, srv2)
	if !contains(text, `repro_recovery_jobs_total{outcome="completed"} 1`) {
		t.Errorf("metrics missing the completed-recovery outcome:\n%s", text)
	}
}

// TestRecoveryAlreadyDone: the crash hits between the store's atomic
// rename and the journal removal, simulated by restoring a pre-merge
// copy of the journal next to the filed run. Recovery tidies: the job
// is done, the stale journal is deleted, nothing re-executes.
func TestRecoveryAlreadyDone(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	last := len(claim.Shards) - 1
	for _, sh := range claim.Shards[:last] {
		if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the journal before the completing upload deletes it.
	snap, err := os.ReadFile(walPath(dir, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	sh := claim.Shards[last]
	if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
		t.Fatal(err)
	}
	done, err := c1.Job(ctx, job.ID)
	if err != nil || done.State != apiclient.JobDone {
		t.Fatalf("job = %+v, %v, want done", done, err)
	}
	crash(ts1, srv1)
	// The crash window: run filed, journal still on disk.
	if err := os.WriteFile(walPath(dir, job.ID), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _, c2 := startCrashServer(t, dir, fc)
	wantDatasetMatch(t, c2, job.ID)
	if _, err := os.Stat(walPath(dir, job.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale journal survived already-done recovery: %v", err)
	}
	server.JobEventLog(t, srv2, job.ID)
	text := metricsText(t, srv2)
	if !contains(text, `repro_recovery_jobs_total{outcome="already_done"} 1`) {
		t.Errorf("metrics missing the already-done outcome:\n%s", text)
	}
}

// TestRecoveryDuplicateResultRecords: the crash-between-journal-and-ack
// window. The failpoint kills the request after the result record is
// fsync'd but before it applies; the worker's idempotent retry appends
// a second record for the same shard. Replay dedups first-wins — the
// shard counts once, runs once, and the dataset is unchanged.
func TestRecoveryDuplicateResultRecords(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)

	// First upload: journaled, then the failpoint cuts the request down.
	remove := failpoint.SetHook(failpoint.AcceptResultAfterJournal, func() error {
		return errors.New("injected: crash after journal append")
	})
	first := claim.Shards[0]
	_, err = c1.PushShardResult(ctx, job.ID, first.Index, "wA", first.Lease, wires[first.Index])
	wantCode(t, err, 500, apiclient.CodeInternal)
	remove()

	// The idempotent retry lands and appends a second result record.
	ack, err := c1.PushShardResult(ctx, job.ID, first.Index, "wA", first.Lease, wires[first.Index])
	if err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("retried upload = %+v, %v", ack, err)
	}
	// Leave exactly one shard pending and crash.
	for _, sh := range claim.Shards[1 : len(claim.Shards)-1] {
		if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	crash(ts1, srv1)

	_, _, c2 := startCrashServer(t, dir, fc)
	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(claim.Shards) - 1; got.ShardsDone != want {
		t.Fatalf("recovered shardsDone = %d, want %d (duplicate record must count once)",
			got.ShardsDone, want)
	}
	fc.Advance(31 * time.Second)
	reclaim, err := c2.Claim(ctx, job.ID, "wB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaim.Shards) != 1 {
		t.Fatalf("re-exposed %d shards, want exactly the 1 pending", len(reclaim.Shards))
	}
	sh := reclaim.Shards[0]
	if _, err := c2.PushShardResult(ctx, job.ID, sh.Index, "wB", sh.Lease, wires[sh.Index]); err != nil {
		t.Fatal(err)
	}
	wantDatasetMatch(t, c2, job.ID)
}

// TestRecoveryTornTail: a crash mid-append leaves a damaged final line.
// Nothing torn was ever acknowledged, so the tail is dropped, counted,
// and the job recovers with every acknowledged shard intact.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	if _, err := c1.PushShardResult(ctx, job.ID, claim.Shards[0].Index, "wA", claim.Shards[0].Lease, wires[claim.Shards[0].Index]); err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	// The torn append: a half-written record with no trailing newline.
	f, err := os.OpenFile(walPath(dir, job.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`w2 00000000 {"t":"result","idx":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, ts2, c2 := startCrashServer(t, dir, fc)
	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobRunning || got.ShardsDone != 1 {
		t.Fatalf("recovered job = state %s done %d, want running with 1 accepted", got.State, got.ShardsDone)
	}
	text := metricsText(t, srv2)
	if !contains(text, "repro_journal_torn_tails_total 1") {
		t.Errorf("metrics missing the torn-tail count:\n%s", text)
	}

	fc.Advance(31 * time.Second)
	reclaim, err := c2.Claim(ctx, job.ID, "wB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The torn bytes were cut off before these grants were appended: a
	// second crash replays a clean file, not a grant fused onto the tail.
	crash(ts2, srv2)
	_, _, c3 := startCrashServer(t, dir, fc)
	if got, err := c3.Job(ctx, job.ID); err != nil || got.State != apiclient.JobRunning || got.ShardsDone != 1 {
		t.Fatalf("job after second crash = %+v, %v, want running with 1 accepted", got, err)
	}
	for _, sh := range reclaim.Shards {
		if _, err := c3.PushShardResult(ctx, job.ID, sh.Index, "wB", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	wantDatasetMatch(t, c3, job.ID)
}

// TestRecoveryMidFileCorruption: a damaged line with valid records
// after it is disk corruption, not a torn append. The job surfaces as
// failed — job_failed in the envelope, never a panic, never a merge of
// doubtful bytes — and the journal stays on disk as evidence.
func TestRecoveryMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards[:2] {
		if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	crash(ts1, srv1)

	// Flip one byte in the middle of line 2; later lines stay valid.
	path := walPath(dir, job.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want >= 4", len(lines))
	}
	lines[1][len(lines[1])/2] ^= 0xff
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2, c2 := startCrashServer(t, dir, fc)
	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobFailed {
		t.Fatalf("corrupted job state = %s, want failed", got.State)
	}
	_, err = c2.JobDataset(ctx, job.ID)
	wantCode(t, err, 502, apiclient.CodeJobFailed)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corrupt journal must stay on disk as evidence: %v", err)
	}
	// A damaged journal never takes the server down: it keeps serving,
	// and says what it recovered.
	if n := server.Counter(t, ts2, "repro_recovery_jobs_total", "failed"); n != 1 {
		t.Errorf("failed recoveries = %d, want 1", n)
	}
}

// TestRecoveryTruncatedJournal: a journal truncated to nothing (the
// submission record itself lost) fails the job cleanly instead of
// panicking or silently dropping it.
func TestRecoveryTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)
	if err := os.Truncate(walPath(dir, job.ID), 0); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := startCrashServer(t, dir, fc)
	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobFailed {
		t.Fatalf("truncated-journal job state = %s, want failed", got.State)
	}
	_, err = c2.JobReport(ctx, job.ID)
	wantCode(t, err, 502, apiclient.CodeJobFailed)
}

// wantRecoveryFailed asserts a restarted coordinator surfaced the job
// as failed — its event log ending failed, job_failed on the artifact
// routes, counted as a failed recovery — while staying up for other
// work.
func wantRecoveryFailed(t *testing.T, srv http.Handler, client *apiclient.Client, jobID string) {
	t.Helper()
	ctx := context.Background()
	got, err := client.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobFailed {
		t.Fatalf("job state = %s, want failed", got.State)
	}
	server.JobEventLog(t, srv, jobID)
	_, err = client.JobDataset(ctx, jobID)
	wantCode(t, err, 502, apiclient.CodeJobFailed)
	text := metricsText(t, srv)
	if !contains(text, `repro_recovery_jobs_total{outcome="failed"} 1`) {
		t.Errorf("metrics missing the failed-recovery outcome:\n%s", text)
	}
}

// TestRecoveryOldFormatJournal: a journal written by a build with the
// previous line format (w1 framing, checksums intact) is unrecognised
// bytes to this one. The job fails cleanly — nothing is guessed at,
// nothing merged — and the file stays on disk as evidence.
func TestRecoveryOldFormatJournal(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Claim(ctx, job.ID, "wA", 1000); err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	path := walPath(dir, job.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := "w1 " + strings.ReplaceAll(strings.TrimPrefix(string(data), "w2 "), "\nw2 ", "\nw1 ")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _, c2 := startCrashServer(t, dir, fc)
	wantRecoveryFailed(t, srv2, c2, job.ID)
	if kept, err := os.ReadFile(path); err != nil || string(kept) != old {
		t.Fatalf("old-format journal must stay on disk untouched: %v", err)
	}
}

// TestRecoveryOlderBuildSpec: a journal whose submission record carries
// a canonical spec from a build that still had the scheduler/xtraffic
// keys (framing and checksum valid) is an undecodable submission to this
// one: the job fails cleanly with the unknown field named, and the file
// stays as evidence. This is the whole compatibility story for the spec
// change — there is no migration code to test.
func TestRecoveryOlderBuildSpec(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	path := walPath(dir, job.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One submit line: "w2 <crc32-hex8> <json>\n". Re-spell the spec the
	// way the older build canonicalised it and re-frame.
	body, ok := strings.CutPrefix(strings.TrimSuffix(string(data), "\n"), "w2 ")
	if !ok || len(body) < 9 {
		t.Fatalf("unexpected journal framing: %q", data)
	}
	body = strings.Replace(body[9:], `"slices_per_vantage":1`,
		`"slices_per_vantage":1,"scheduler":"wheel","xtraffic":"lazy"`, 1)
	old := fmt.Sprintf("w2 %08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
	if !strings.Contains(old, `"scheduler"`) {
		t.Fatalf("submission record has no canonical spec to re-spell: %q", data)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _, c2 := startCrashServer(t, dir, fc)
	wantRecoveryFailed(t, srv2, c2, job.ID)
	if got, _ := c2.Job(ctx, job.ID); !strings.Contains(got.Error, "scheduler: unknown field") {
		t.Errorf("job error = %q, want the unknown spec field named", got.Error)
	}
	if kept, err := os.ReadFile(path); err != nil || string(kept) != old {
		t.Fatalf("older-build journal must stay on disk untouched: %v", err)
	}
}

// TestRecoveryReopenFailure: a journal that replays but cannot be
// reopened for appending must fail its job. Resuming it un-journaled
// would ack every later upload without durability. The file vanishes
// between replay and reopen — the injected clock, first read in that
// window, removes it.
func TestRecoveryReopenFailure(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	var once sync.Once
	srv2, err := server.New(server.Config{
		DataDir: dir,
		Clock: func() time.Time {
			once.Do(func() { os.Remove(walPath(dir, job.ID)) })
			return fc.Now()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() { crash(ts2, srv2) })
	wantRecoveryFailed(t, srv2, apiclient.New(ts2.URL), job.ID)
}

// TestDataDirLock: one data directory, one coordinator. A second
// server.New on a live directory fails fast naming the lock; once the
// first instance is gone — cleanly or not — the directory opens again.
func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	first, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Abort()
	if second, err := server.New(server.Config{DataDir: dir}); err == nil {
		second.Abort()
		t.Fatal("second coordinator opened a data dir the first still holds")
	} else if !contains(err.Error(), filepath.Join(dir, "LOCK")) {
		t.Fatalf("lock error does not name the lock file: %v", err)
	}
	first.Abort()
	second, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		t.Fatalf("data dir still locked after Abort: %v", err)
	}
	second.Close()
	third, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		t.Fatalf("data dir still locked after Close: %v", err)
	}
	third.Close()
}

// bigSpec slices every vantage three ways for a 39-shard plan.
const bigSpec = `{"spec": 1, "scale": "small", "traces": 3, "slices_per_vantage": 3,
  "seed": 2015, "stride": 0, "execution": "distributed"}`

// TestJournalBoundsSize: the journal keeps each upload's own
// (compressed) bytes, so with all but one shard of a 39-shard job
// accepted it is one file, well under half the size of the payloads it
// guarantees — with nothing running behind the requests to shrink it.
func TestJournalBoundsSize(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, _, client := startCrashServer(t, dir, newFakeClock())

	job, _, err := client.SubmitRaw(ctx, []byte(bigSpec))
	if err != nil {
		t.Fatal(err)
	}
	if job.ShardsTotal < 32 {
		t.Fatalf("plan = %d shards, want >= 32", job.ShardsTotal)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 100)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, bigSpec, claim.SpecHash)
	var payload int
	for _, s := range claim.Shards[:len(claim.Shards)-1] {
		ack, err := client.PushShardResult(ctx, job.ID, s.Index, "w1", s.Lease, wires[s.Index])
		if err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload %d = %v %v, want accepted", s.Index, ack, err)
		}
		raw, err := json.Marshal(wires[s.Index])
		if err != nil {
			t.Fatal(err)
		}
		payload += len(raw)
	}

	if got := journalFiles(t, dir); len(got) != 1 || got[0] != job.ID+".wal" {
		t.Fatalf("journal dir = %v, want exactly %s.wal", got, job.ID)
	}
	info, err := os.Stat(walPath(dir, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("journal: %d bytes for %d bytes of accepted payload", info.Size(), payload)
	if info.Size()*2 >= int64(payload) {
		t.Fatalf("journal is %d bytes, want under half of the %d payload bytes", info.Size(), payload)
	}
}

// TestRecoveryRestoresStragglerBaseline: replay runs the accept
// transition itself, so the job's shard-duration baseline survives a
// restart — a shard leased before the crash is recognised as a
// straggler and twinned on the first post-restart claim, without
// waiting for a fresh upload to re-seed the EWMA.
func TestRecoveryRestoresStragglerBaseline(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()
	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, job.Key)
	for i := 0; i < 2; i++ {
		claim, err := c1.Claim(ctx, job.ID, "wA", 1)
		if err != nil {
			t.Fatal(err)
		}
		sh := claim.Shards[0]
		wires[sh.Index].Stats.Elapsed = 50 * time.Millisecond
		if ack, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload %d = %v %v, want accepted", sh.Index, ack, err)
		}
	}
	straggle, err := c1.Claim(ctx, job.ID, "wA", 1)
	if err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	// 10s dwarfs speculateAfter × EWMA (3 × 50ms) and stays inside the
	// straggler's 30s lease: only speculation can re-expose its shard.
	_, _, c2 := startCrashServer(t, dir, fc)
	fc.Advance(10 * time.Second)
	claim, err := c2.Claim(ctx, job.ID, "wB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	twins := 0
	for _, s := range claim.Shards {
		if s.Speculative {
			twins++
			if s.Index != straggle.Shards[0].Index {
				t.Errorf("twin of shard %d, want the straggler's shard %d", s.Index, straggle.Shards[0].Index)
			}
		}
	}
	if twins != 1 || len(claim.Shards) != job.ShardsTotal-2 {
		t.Fatalf("post-restart claim = %d shards with %d twins, want %d with 1",
			len(claim.Shards), twins, job.ShardsTotal-2)
	}
}

// TestRecoveryReplaysParentJournal replays a journal written by the
// build before the lease transitions were split into state and live
// halves (testdata/parent_j-000001.wal: two claims by wA, a straggler
// twinned by wB, three more uploads, every open lease expired, one
// re-grant to wC — each record kind once at least) and holds the
// recovered shard table to the one that build served when it died.
func TestRecoveryReplaysParentJournal(t *testing.T) {
	const jobID = "j-000001"
	wal, err := os.ReadFile(filepath.Join("testdata", "parent_"+jobID+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_"+jobID+".shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, jobID), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	fc := newFakeClock()
	fc.Advance(50 * time.Second) // past the fixture's last record, inside wC's lease
	_, _, client := startCrashServer(t, dir, fc)
	ctx := context.Background()

	shards, err := client.Shards(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(shards, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("recovered shard table differs from the parent build's:\n%s", got)
	}

	// wC's pre-crash lease is still the current one for its shard, the
	// next token for that shard is the fourth, and the job completes to
	// the same bytes.
	wires := execWires(t, distSpec, "c4a7eb863cbe522a2d6568173e4da62ca53db0f5d7eb5de4a750d20995d1c211")
	if ack, err := client.PushShardResult(ctx, jobID, 2, "wC", jobID+".2.3", wires[2]); err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("upload under the pre-crash lease = %v %v, want accepted", ack, err)
	}
	claim, err := client.Claim(ctx, jobID, "wD", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(claim.Shards) != 7 || claim.Shards[0].Lease != jobID+".6.2" {
		t.Fatalf("post-restart claim = %+v, want the 7 evicted shards re-issued from seq 2", claim.Shards)
	}
	for _, s := range claim.Shards {
		if _, err := client.PushShardResult(ctx, jobID, s.Index, "wD", s.Lease, wires[s.Index]); err != nil {
			t.Fatal(err)
		}
	}
	wantDatasetMatch(t, client, jobID)
}

// TestResultWithWrongTraceCountRejected: a result that does not carry
// exactly the traces the plan gives its shard is never merged. Over
// HTTP it is a 400 result_invalid that leaves the lease, the shard and
// the journal as they were; found in a journal — an older coordinator
// would have acknowledged it — it fails the job on replay.
func TestResultWithWrongTraceCountRejected(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	sh := claim.Shards[0]
	good := wires[sh.Index]

	short := *good
	short.Traces = good.Traces[:len(good.Traces)-1]
	long := *good
	long.Traces = append(append([]dataset.Trace(nil), good.Traces...), good.Traces[0])
	lying := *good
	lying.Stats.Traces++
	for name, bad := range map[string]*campaign.ShardResultWire{"a missing trace": &short, "an extra trace": &long, "stats that disagree": &lying} {
		_, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, bad)
		if err == nil {
			t.Fatalf("a result with %s was acknowledged", name)
		}
		wantCode(t, err, 400, apiclient.CodeResultInvalid)
	}
	if view, err := c1.Job(ctx, job.ID); err != nil || view.ShardsDone != 0 || view.State != apiclient.JobRunning {
		t.Fatalf("job after three refused results = %+v, %v; want running with no shard done", view, err)
	}
	// The lease survived the refusals: the genuine result lands under it.
	if ack, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, good); err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("genuine result after the refusals = %+v, %v; want accepted", ack, err)
	}
	crash(ts1, srv1)

	path := walPath(dir, job.ID)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`"t":"result"`)); n != 1 {
		t.Fatalf("journal holds %d result records, want only the accepted one", n)
	}
	next := claim.Shards[1]
	short = *wires[next.Index]
	short.Traces = []dataset.Trace{}
	rec, err := json.Marshal(map[string]any{
		"t": "result", "idx": next.Index, "worker": "wA", "token": next.Lease,
		"body": uploadBody(t, "wA", next.Lease, &short), "enc": "gzip",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(journal, walLine("w2", string(rec))...), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := startCrashServer(t, dir, fc)
	got, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != apiclient.JobFailed || !strings.Contains(got.Error, "traces") {
		t.Fatalf("job replayed over a short result = %s (%q), want failed on the trace count", got.State, got.Error)
	}
	_, err = c2.JobDataset(ctx, job.ID)
	wantCode(t, err, 502, apiclient.CodeJobFailed)
}

// TestRecoveryIdentityRecordFails: a result record whose body is not
// gzip'd — an identity upload, which an older coordinator accepted and
// journaled as "enc":"identity" — is damage to this one. Its job fails
// on replay with job_failed, nothing of the record is merged, and the
// coordinator stays up.
func TestRecoveryIdentityRecordFails(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards[:3] {
		if _, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
			t.Fatal(err)
		}
	}
	crash(ts1, srv1)

	path := walPath(dir, job.ID)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := claim.Shards[3]
	rec, err := json.Marshal(map[string]any{
		"t": "result", "idx": next.Index, "worker": "wA", "token": next.Lease,
		"body": uploadJSON(t, "wA", next.Lease, wires[next.Index]), "enc": "identity",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(journal, walLine("w2", string(rec))...), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _, c2 := startCrashServer(t, dir, fc)
	wantRecoveryFailed(t, srv2, c2, job.ID)
	if got, err := c2.Job(ctx, job.ID); err != nil || !strings.Contains(got.Error, `"identity"`) {
		t.Fatalf("job error = %q, %v; want the record's encoding named", got.Error, err)
	}
}

// FuzzWALReplay feeds arbitrary bytes to startup recovery as a job's
// journal. Whatever they are, the coordinator comes up, the job is
// either recovered or failed with job_failed, and no shard is ever
// counted twice or beyond the plan.
func FuzzWALReplay(f *testing.F) {
	// A bound the bomb seed can cross in kilobytes, not 256 MiB.
	f.Cleanup(server.SetMaxResultBytes(1 << 20))

	// A real journal: submission, a full claim, three accepted uploads.
	dir := f.TempDir()
	ctx := context.Background()
	srv, ts, client := startCrashServer(f, dir, newFakeClock())
	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		f.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		f.Fatal(err)
	}
	wires := execWires(f, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards[:3] {
		if _, err := client.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index]); err != nil {
			f.Fatal(err)
		}
	}
	crash(ts, srv)
	valid, err := os.ReadFile(walPath(dir, job.ID))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(valid, []byte("\n")) // the final element is empty
	lastLine := lines[len(lines)-2]

	// resultLine frames a result record for a still-pending shard.
	pending := claim.Shards[len(claim.Shards)-1]
	resultLine := func(body []byte, enc string) string {
		rec, err := json.Marshal(map[string]any{
			"t": "result", "idx": pending.Index, "worker": "wA", "token": pending.Lease,
			"body": body, "enc": enc,
		})
		if err != nil {
			f.Fatal(err)
		}
		return walLine("w2", string(rec))
	}
	bomb := gzipped(f, bytes.Repeat([]byte(" "), 2<<20))
	flipped := bytes.Clone(valid)
	flipped[len(lines[0])+3] ^= 0x01 // first checksum digit of line 2

	f.Add(valid)
	f.Add(valid[:len(valid)-len(lastLine)/2])                                                       // torn tail
	f.Add(flipped)                                                                                  // bad CRC mid-file
	f.Add(append(bytes.Clone(valid), lastLine...))                                                  // duplicated result record
	f.Add(append([]byte(walLine("w1", `{"t":"submit","job":"j-000001"}`)), valid...))               // older build's line
	f.Add(append(bytes.Clone(valid), resultLine([]byte("this is not gzip"), "gzip")...))            // body is not gzip
	f.Add(append(bytes.Clone(valid), resultLine(bomb, "gzip")...))                                  // inflates past the bound
	f.Add(append(bytes.Clone(valid), resultLine(gzipped(f, []byte(`{"worker":"wA"}`)), "gzip")...)) // no payload
	f.Add([]byte{})
	// A submission record for a local job: it never had a journal, and
	// nothing could claim its shards if it were resumed.
	submit := bytes.TrimSuffix(lines[0][len("w2 00000000 "):], []byte("\n"))
	f.Add(append([]byte(walLine("w2", strings.Replace(string(submit),
		`"execution":"distributed"`, `"execution":"local"`, 1))), valid[len(lines[0]):]...))
	// A well-formed result for the pending shard that lacks its trace.
	short := *wires[pending.Index]
	short.Traces = []dataset.Trace{}
	f.Add(append(bytes.Clone(valid), resultLine(uploadBody(f, "wA", pending.Lease, &short), "gzip")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir, job.ID), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{DataDir: dir})
		if err != nil {
			t.Fatalf("recovery refused to start: %v", err)
		}
		defer srv.Abort()
		get := func(path string, v any) int {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if v != nil {
				if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
			}
			return rec.Code
		}

		var view apiclient.Job
		if code := get("/v1/jobs/"+job.ID, &view); code != 200 {
			t.Fatalf("job lookup = %d, want the recovered or failed job", code)
		}
		var shards apiclient.JobShards
		get("/v1/jobs/"+job.ID+"/shards", &shards)
		done := 0
		for _, sh := range shards.Shards {
			if sh.State == "done" {
				done++
			}
		}
		if view.ShardsDone != done || done > view.ShardsTotal || view.TracesDone > view.TracesTotal {
			t.Fatalf("shards done %d (%d marked) of %d, traces %d of %d",
				view.ShardsDone, done, view.ShardsTotal, view.TracesDone, view.TracesTotal)
		}
		dataset := get("/v1/jobs/"+job.ID+"/dataset", nil)
		switch view.State {
		case apiclient.JobRunning:
			if dataset != 409 || view.Spec.Execution != campaign.ExecutionDistributed {
				t.Fatalf("running %q job's dataset = %d, want a distributed job and 409", view.Spec.Execution, dataset)
			}
		case apiclient.JobDone:
			if dataset != 200 {
				t.Fatalf("done job's dataset = %d, want 200", dataset)
			}
		case apiclient.JobFailed:
			if dataset != 502 {
				t.Fatalf("failed job's dataset = %d, want 502 job_failed", dataset)
			}
		default:
			t.Fatalf("recovered job in state %q", view.State)
		}
	})
}

// TestRecoveryFreshIDsAboveRecovered: a restarted coordinator must
// never hand a new job an ID that collides with (and truncates) a
// recovered journal.
func TestRecoveryFreshIDsAboveRecovered(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv1, ts1, c1 := startCrashServer(t, dir, fc)
	job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	crash(ts1, srv1)

	_, _, c2 := startCrashServer(t, dir, fc)
	// A different spec (seed differs) so it is a fresh job, not a cache
	// hit on the recovered one.
	other := `{"spec": 1, "scale": "small", "traces": 1, "seed": 2016, "stride": 0,
	  "execution": "distributed"}`
	fresh, created, err := c2.SubmitRaw(ctx, []byte(other))
	if err != nil {
		t.Fatal(err)
	}
	if !created || fresh.ID == job.ID {
		t.Fatalf("fresh job = %s created %v; must not reuse recovered ID %s", fresh.ID, created, job.ID)
	}
}

// TestDrainRejectsNewWorkAcceptsInFlight: the graceful-shutdown
// half-close. BeginDrain refuses new submissions and claims with 503
// unavailable + Retry-After, keeps heartbeats and in-flight uploads
// landing, flips healthz to draining, and a restart after Close
// resumes nothing.
func TestDrainRejectsNewWorkAcceptsInFlight(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock()
	ctx := context.Background()

	srv, ts, client := startCrashServer(t, dir, fc)
	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "wA", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)

	srv.BeginDrain()

	// New work is refused with the retry hint...
	_, _, err = client.SubmitRaw(ctx, []byte(`{"spec": 1, "scale": "small", "traces": 1,
	  "seed": 2017, "stride": 0, "execution": "distributed"}`))
	wantCode(t, err, 503, apiclient.CodeUnavailable)
	var ae *apiclient.APIError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("drain rejection carries no Retry-After: %+v", err)
	}
	_, err = client.Claim(ctx, job.ID, "wB", 1000)
	wantCode(t, err, 503, apiclient.CodeUnavailable)

	// ...while the in-flight lease stays serviceable end to end.
	first := claim.Shards[0]
	if _, err := client.Heartbeat(ctx, job.ID, first.Index, "wA", first.Lease); err != nil {
		t.Fatalf("heartbeat during drain: %v", err)
	}
	for _, sh := range claim.Shards {
		ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index])
		if err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload during drain = %+v, %v", ack, err)
		}
	}
	wantDatasetMatch(t, client, job.ID)

	// healthz reports draining with 503 so load balancers rotate out.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health apiclient.Health
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 503 || health.Status != "draining" || !health.Draining {
		t.Fatalf("healthz during drain = %d %+v, %v; want 503 draining", resp.StatusCode, health, err)
	}

	srv.Close()
	_, ts2, _ := startCrashServer(t, dir, fc)
	if n := server.Counter(t, ts2, "repro_recovery_jobs_total", "resumed"); n != 0 {
		t.Fatalf("restart after a clean drain resumed %d jobs, want 0", n)
	}
}
