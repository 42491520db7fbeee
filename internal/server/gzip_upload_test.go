package server_test

// Shard-result uploads are gzip'd: a body labelled so that is not gzip
// is refused cleanly.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"
)

// TestGzipUploadRejectsGarbage: a Content-Encoding: gzip body that is
// not gzip is a 400 bad_request, not a 500 or a hang.
func TestGzipUploadRejectsGarbage(t *testing.T) {
	_, ts, client := startCrashServer(t, t.TempDir(), newFakeClock())
	ctx := context.Background()

	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 1000)
	if err != nil {
		t.Fatal(err)
	}

	url := fmt.Sprintf("%s/v1/jobs/%s/shards/%d/result", ts.URL, job.ID, claim.Shards[0].Index)
	req, err := http.NewRequest("POST", url, bytes.NewReader([]byte("this is not gzip")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage gzip upload = %d, want 400", resp.StatusCode)
	}

	// The shard is still serviceable after the bad upload.
	wires := execWires(t, distSpec, claim.SpecHash)
	for _, sh := range claim.Shards {
		ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wires[sh.Index])
		if err != nil || ack.Status != "accepted" {
			t.Fatalf("upload after rejected garbage = %+v, %v", ack, err)
		}
	}
	wantDatasetMatch(t, client, job.ID)
}
