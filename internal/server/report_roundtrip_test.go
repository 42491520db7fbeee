package server_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/netsim"
)

// TestReportRoundTripCrossTrafficCounters runs a congested campaign
// under each cross-traffic drive and reads its report back through the
// typed client: the phantom/replayed boundary split the coordinator
// files must arrive over HTTP. The server encodes the same
// apiclient.Report the client decodes, so the two can no longer
// disagree on a JSON tag (a client-side copy of the type once did, and
// both fields read 0); the test stays as a round trip of the counters.
// The lazy drive replays boundaries without events and the events
// drive runs each as an event, so between them both fields are seen
// non-zero.
//
// The lazy run is an ordinary local job. The events drive is a
// reference no spec can select, so for that run the test is the worker:
// it claims a distributed job's plan and executes every shard on a
// blueprint whose worlds run on the events drive
// (topology.Blueprint.WithSims).
func TestReportRoundTripCrossTrafficCounters(t *testing.T) {
	srv, client, _ := newLeaseServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The drive cannot change a byte, so each run gets its own seed to
	// be a cold job.
	const specFmt = `{"spec": 1, "scale": "small", "scenario": "congested-edge", "traces": 1,
	  "seed": %d, "stride": 0, "execution": %q}`
	lazy, _, err := client.SubmitRaw(ctx, []byte(fmt.Sprintf(specFmt, 2015, campaign.ExecutionLocal)))
	if err != nil {
		t.Fatal(err)
	}

	events, _, err := client.SubmitRaw(ctx, []byte(fmt.Sprintf(specFmt, 2016, campaign.ExecutionDistributed)))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, events.ID, "w", 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := claim.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	bp, err = bp.WithSims(func(seed int64) *netsim.Sim {
		sim := netsim.NewSim(seed)
		sim.SetXTrafficMode(netsim.XTrafficEvents)
		return sim
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range claim.Shards {
		wire, err := campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice)
		if err != nil {
			t.Fatal(err)
		}
		wire.SpecHash = claim.SpecHash
		if _, err := client.PushShardResult(ctx, events.ID, sh.Index, "w", sh.Lease, wire); err != nil {
			t.Fatal(err)
		}
	}

	for drive, id := range map[string]string{"lazy": lazy.ID, "events": events.ID} {
		job, err := client.AwaitJob(ctx, id, 10*time.Millisecond)
		if err != nil || job.State != apiclient.JobDone {
			t.Fatalf("%s: job = %+v, %v", drive, job, err)
		}
		rep, err := client.JobReport(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := srv.Store().Meta(job.Key)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PhantomEvents != meta.PhantomEvents || rep.ReplayedBoundaries != meta.ReplayedBoundaries || rep.Events != meta.Events {
			t.Errorf("%s: report over HTTP = events %d / phantom %d / replayed %d, stored meta %d / %d / %d",
				drive, rep.Events, rep.PhantomEvents, rep.ReplayedBoundaries,
				meta.Events, meta.PhantomEvents, meta.ReplayedBoundaries)
		}
		switch drive {
		case "lazy":
			if rep.ReplayedBoundaries == 0 {
				t.Error("lazy drive: report reads 0 replayed boundaries on a congested campaign")
			}
		case "events":
			if rep.PhantomEvents == 0 {
				t.Error("events drive: report reads 0 phantom events on a congested campaign")
			}
		}
	}
}
