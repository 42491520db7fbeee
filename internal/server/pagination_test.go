package server_test

// Pagination contract tests for GET /v1/jobs: stable ordering,
// limit/cursor resumption, Link rel="next" headers, and the envelope
// codes for bad paging parameters.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apiclient"
	"repro/internal/server"
)

// newPagingServer starts a coordinator whose jobs never run: every
// submission is a distributed job that sits "running" with pending
// shards, so listings are deterministic and instant.
func newPagingServer(t *testing.T) (*server.Server, *httptest.Server, *apiclient.Client) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, apiclient.New(ts.URL)
}

func submitN(t *testing.T, client *apiclient.Client, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		spec := fmt.Sprintf(`{"spec": 1, "scale": "small", "traces": 1, "seed": %d, "stride": 0,
			"execution": "distributed"}`, 1000+i)
		job, _, err := client.SubmitRaw(context.Background(), []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	return ids
}

func TestJobsPagination(t *testing.T) {
	_, ts, client := newPagingServer(t)
	ctx := context.Background()
	ids := submitN(t, client, 5)

	// Page 1: first two jobs in submission order, with a resume cursor.
	page, err := client.Jobs(ctx, apiclient.JobsOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[0] || page.Jobs[1].ID != ids[1] {
		t.Fatalf("page 1 = %+v, want %v", page.Jobs, ids[:2])
	}
	if page.NextCursor != ids[1] {
		t.Fatalf("page 1 cursor = %q, want %q", page.NextCursor, ids[1])
	}

	// The same page over raw HTTP carries a Link rel="next" header.
	resp, err := http.Get(ts.URL + "/v1/jobs?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	link := resp.Header.Get("Link")
	if !strings.Contains(link, "cursor="+ids[1]) || !strings.Contains(link, `rel="next"`) {
		t.Fatalf("Link header = %q", link)
	}

	// Resume to the end.
	page, err = client.Jobs(ctx, apiclient.JobsOptions{Limit: 2, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != ids[2] || page.Jobs[1].ID != ids[3] {
		t.Fatalf("page 2 = %+v", page.Jobs)
	}
	page, err = client.Jobs(ctx, apiclient.JobsOptions{Limit: 2, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[4] || page.NextCursor != "" {
		t.Fatalf("final page = %+v next %q, want [%s] and no cursor", page.Jobs, page.NextCursor, ids[4])
	}

	// A state filter that matches everything pages identically; one
	// that matches nothing is empty but well-formed.
	page, err = client.Jobs(ctx, apiclient.JobsOptions{State: apiclient.JobRunning})
	if err != nil || len(page.Jobs) != 5 {
		t.Fatalf("state=running page = %d jobs, %v", len(page.Jobs), err)
	}
	page, err = client.Jobs(ctx, apiclient.JobsOptions{State: apiclient.JobFailed})
	if err != nil || len(page.Jobs) != 0 {
		t.Fatalf("state=failed page = %+v, %v", page.Jobs, err)
	}

	// Bad paging parameters report stable envelope codes.
	_, err = client.Jobs(ctx, apiclient.JobsOptions{Cursor: "j-404404"})
	wantCode(t, err, 400, apiclient.CodeCursorInvalid)
	_, err = client.Jobs(ctx, apiclient.JobsOptions{State: "bogus"})
	wantCode(t, err, 400, apiclient.CodeBadRequest)
	resp, err = http.Get(ts.URL + "/v1/jobs?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=banana status = %d, want 400", resp.StatusCode)
	}
}
