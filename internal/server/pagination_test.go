package server_test

// Pagination contract tests for GET /v1/jobs and GET /v1/runs: stable
// ordering, limit/cursor resumption, Link rel="next" headers, and the
// envelope codes for bad paging parameters.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	page, err = client.Jobs(ctx, apiclient.JobsOptions{State: "running"})
	if err != nil || len(page.Jobs) != 5 {
		t.Fatalf("state=running page = %d jobs, %v", len(page.Jobs), err)
	}
	page, err = client.Jobs(ctx, apiclient.JobsOptions{State: "failed"})
	if err != nil || len(page.Jobs) != 0 {
		t.Fatalf("state=failed page = %+v, %v", page.Jobs, err)
	}

	// Bad paging parameters report stable envelope codes.
	_, err = client.Jobs(ctx, apiclient.JobsOptions{Cursor: "j-404404"})
	wantCode(t, err, 400, "cursor_invalid")
	_, err = client.Jobs(ctx, apiclient.JobsOptions{State: "bogus"})
	wantCode(t, err, 400, "bad_request")
	resp, err = http.Get(ts.URL + "/v1/jobs?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=banana status = %d, want 400", resp.StatusCode)
	}
}

func TestRunsPagination(t *testing.T) {
	srv, _, client := newPagingServer(t)
	ctx := context.Background()

	// File fabricated runs straight into the store; the listing must
	// come back sorted regardless of insertion order.
	keys := []string{"cc44", "aa11", "bb33", "bb22"}
	for _, k := range keys {
		meta := server.RunMeta{Key: k, CompletedAt: time.Now().UTC()}
		_, err := srv.Store().Put(k, []byte(`{}`), meta, func(w io.Writer) error {
			_, err := io.WriteString(w, "{}\n")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	page, err := client.Runs(ctx, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"aa11", "bb22", "bb33"}; len(page.Runs) != 3 ||
		page.Runs[0] != want[0] || page.Runs[1] != want[1] || page.Runs[2] != want[2] {
		t.Fatalf("runs page 1 = %v, want %v", page.Runs, want)
	}
	if page.NextCursor != "bb33" {
		t.Fatalf("runs cursor = %q, want bb33", page.NextCursor)
	}
	page, err = client.Runs(ctx, 3, page.NextCursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 1 || page.Runs[0] != "cc44" || page.NextCursor != "" {
		t.Fatalf("runs page 2 = %+v", page)
	}

	// Run cursors are positional, not existential: a pruned key still
	// resumes from the right place.
	page, err = client.Runs(ctx, 10, "bb25")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 2 || page.Runs[0] != "bb33" {
		t.Fatalf("lenient cursor page = %v", page.Runs)
	}
}
