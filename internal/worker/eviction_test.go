package worker

import (
	"context"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/apiclient"
	"repro/internal/server"
)

// TestCompiledEntriesEvicted: a long-lived worker serving one
// distributed job after another (distinct seeds, so distinct spec
// hashes) holds compiled state — a blueprint and a warmed world — for
// the live job only. Every earlier job's entry is dropped by the first
// scan that no longer lists the job, and is garbage after it.
func TestCompiledEntriesEvicted(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()
	cfg := Config{Client: apiclient.New(ts.URL), ID: "w", Poll: time.Millisecond}
	logger := slog.New(slog.DiscardHandler)

	compiled := make(map[string]*compiledJob)
	var stats Stats
	var served []weak.Pointer[compiledJob]
	for seed := 1; seed <= 3; seed++ {
		spec := fmt.Sprintf(`{"spec": 1, "scale": "small", "traces": 1, "seed": %d, "stride": 0, "execution": "distributed"}`, seed)
		job, _, err := cfg.Client.SubmitRaw(ctx, []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		for worked := true; worked; {
			if worked, err = scanOnce(ctx, cfg, logger, compiled, &stats); err != nil {
				t.Fatal(err)
			}
			if len(compiled) > 1 {
				t.Fatalf("serving job %d: %d compiled entries held, want at most the live job's", seed, len(compiled))
			}
			for _, cj := range compiled {
				if cj.job != job.ID {
					t.Fatalf("serving job %s: entry for %s still held", job.ID, cj.job)
				}
				if n := len(served); n < seed {
					served = append(served, weak.Make(cj))
				}
			}
		}
		// The idle scan that ended the loop no longer listed the job.
		if len(compiled) != 0 {
			t.Fatalf("after job %d finished: %d compiled entries held, want 0", seed, len(compiled))
		}
	}
	if len(served) != 3 || stats.Accepted == 0 {
		t.Fatalf("served %d jobs, stats %+v: the worker did not execute", len(served), stats)
	}
	runtime.GC()
	for i, wp := range served {
		if wp.Value() != nil {
			t.Errorf("job %d's compiled entry is still reachable after eviction", i+1)
		}
	}
}
