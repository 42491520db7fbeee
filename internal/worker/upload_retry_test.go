package worker_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/server"
	"repro/internal/worker"
)

// flakyResults fronts a real coordinator and answers the first two
// attempts at every shard's result route with a 503 — after reading
// the body, as a coordinator that died between receipt and journal
// would — then lets the third through. It keeps every body it saw.
type flakyResults struct {
	next http.Handler

	mu     sync.Mutex
	bodies map[string][][]byte // result route path → one body per attempt
}

func (f *flakyResults) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/result") {
		f.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	f.bodies[r.URL.Path] = append(f.bodies[r.URL.Path], body)
	attempt := len(f.bodies[r.URL.Path])
	f.mu.Unlock()
	if attempt <= 2 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"unavailable","message":"injected: try again"}}`)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	f.next.ServeHTTP(w, r)
}

// TestUploadEncodedOncePerShard: a shard whose upload takes three
// attempts sends the same bytes three times, and the coordinator that
// finally accepts them files the in-process engine's dataset.
func TestUploadEncodedOncePerShard(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := &flakyResults{next: srv, bodies: make(map[string][][]byte)}
	ts := httptest.NewServer(front)
	defer ts.Close()
	defer srv.Close()

	ctx := context.Background()
	client := apiclient.New(ts.URL)
	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer worker.SetBackoff(time.Millisecond, 5*time.Millisecond)()
	stats, err := worker.Run(ctx, worker.Config{
		Client:       client,
		ID:           "retry-w",
		ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != job.ShardsTotal || stats.Retries != 2*job.ShardsTotal {
		t.Fatalf("worker stats = %+v, want %d accepted after %d retries",
			stats, job.ShardsTotal, 2*job.ShardsTotal)
	}

	if len(front.bodies) != job.ShardsTotal {
		t.Fatalf("uploads reached %d result routes, want %d", len(front.bodies), job.ShardsTotal)
	}
	for path, attempts := range front.bodies {
		if len(attempts) != 3 {
			t.Errorf("%s: %d attempts, want 3", path, len(attempts))
			continue
		}
		for i, body := range attempts[1:] {
			if !bytes.Equal(body, attempts[0]) {
				t.Errorf("%s: attempt %d sent %d bytes that differ from attempt 1's %d",
					path, i+2, len(body), len(attempts[0]))
			}
		}
	}

	served, err := client.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := directDataset(t); !bytes.Equal(served, want) {
		t.Fatalf("dataset after retried uploads (%d bytes) differs from campaign.Run (%d bytes)",
			len(served), len(want))
	}
}
