package server_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apiclient"
	"repro/internal/freelist"
)

// TestConcurrentUploadsOwnTheirBuffers: more uploaders than the
// coordinator has free-list slots push distinct wires at once, so
// request buffers are handed from upload to
// upload while earlier results are still held for the merge. Every
// upload must be accepted and the job must file exactly the in-process
// engine's bytes — from the results held in memory (live), and again
// from nothing but the journal after a crash (restart). A held result
// that aliased its request buffer fails the first; a buffer returned to
// the list before its body was journaled fails the second. Run under
// -race.
func TestConcurrentUploadsOwnTheirBuffers(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := "live"
		if restart {
			name = "restart"
		}
		t.Run(name, func(t *testing.T) {
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

			// With a restart in the plan one shard is held back, so the job
			// cannot finalize and delete the journal before the crash.
			racing, held := claim.Shards, []apiclient.ClaimedShard(nil)
			if restart {
				racing, held = claim.Shards[1:], claim.Shards[:1]
			}
			if len(racing) <= freelist.Slots {
				t.Fatalf("plan has %d shards to race, need more than the %d free-list slots",
					len(racing), freelist.Slots)
			}

			start := make(chan struct{})
			errs := make(chan error, len(racing))
			var wg sync.WaitGroup
			for _, sh := range racing {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					ack, err := c1.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index])
					if err != nil {
						errs <- fmt.Errorf("shard %d: %w", sh.Index, err)
					} else if ack.Status != apiclient.ResultAccepted {
						errs <- fmt.Errorf("shard %d: status %q, want accepted", sh.Index, ack.Status)
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.FailNow()
			}

			client := c1
			if restart {
				crash(ts1, srv1)
				_, _, client = startCrashServer(t, dir, fc)
				got, err := client.Job(ctx, job.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got.State != apiclient.JobRunning || got.ShardsDone != len(racing) {
					t.Fatalf("recovered job = state %s done %d, want running with %d replayed",
						got.State, got.ShardsDone, len(racing))
				}
				// The pre-crash lease token still lands the held-back shard.
				for _, sh := range held {
					ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "wA", sh.Lease, wires[sh.Index])
					if err != nil || ack.Status != apiclient.ResultAccepted {
						t.Fatalf("held-back shard %d after restart = %+v, %v", sh.Index, ack, err)
					}
				}
			}
			wantDatasetMatch(t, client, job.ID)
		})
	}
}
