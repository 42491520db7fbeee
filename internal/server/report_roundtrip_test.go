package server_test

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestReportRoundTripCrossTrafficCounters runs a congested campaign
// under each cross-traffic drive and reads its report back through the
// typed client: apiclient.Report must decode the phantom/replayed
// boundary split server.RunMeta emits (the two once disagreed on the
// JSON tags, so both fields read 0 over HTTP). The lazy drive replays
// boundaries without events and the events drive runs each as an
// event, so between them both fields are seen non-zero.
func TestReportRoundTripCrossTrafficCounters(t *testing.T) {
	srv, client, _ := newLeaseServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The drive is not part of the cache key (it cannot change a byte),
	// so each run gets its own seed to be a cold job.
	for i, drive := range []string{"lazy", "events"} {
		spec := fmt.Sprintf(`{"spec": 1, "scale": "small", "scenario": "congested-edge", "traces": 1,
		  "seed": %d, "stride": 0, "xtraffic": %q}`, 2015+i, drive)
		job, _, err := client.SubmitRaw(ctx, []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if job, err = client.AwaitJob(ctx, job.ID, 10*time.Millisecond); err != nil || job.State != "done" {
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
