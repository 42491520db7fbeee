package server

import (
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/alloctest"
)

// TestDatasetGetAllocs bounds what one dataset GET allocates, client
// and server together, through the instrumented mux: the file must reach
// the connection without a per-request copy buffer. A status recorder
// that hides the response's io.ReaderFrom costs a fresh 32 KB buffer per
// GET (io.Copy falls back to os.File's generic WriteTo), which this
// bound — the least reading, 7.4 KB, + 20 % — is set well under.
func TestDatasetGetAllocs(t *testing.T) {
	srv, ts := newTestServer(t)
	_, view := submit(t, ts, testSpec)
	awaitDone(t, ts, view.ID)
	url := ts.URL + "/v1/jobs/" + view.ID + "/dataset"
	client := ts.Client()
	fetch := func() int64 {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dataset status = %d", resp.StatusCode)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if n != resp.ContentLength {
			t.Fatalf("read %d bytes of a %d-byte Content-Length", n, resp.ContentLength)
		}
		return n
	}
	if size := fetch(); size < 64<<10 { // warm the connection and the pools
		t.Fatalf("the dataset is %d bytes: too small to need a copy buffer", size)
	}
	// Each GET is a window of its own: the server's goroutines share it,
	// so the least of them is the reading.
	const gets = 20
	least, median := alloctest.Measure(gets, nil, func() { fetch() })
	perGet := least.Bytes
	t.Logf("%d B allocated per dataset GET (median %d B)", perGet, median.Bytes)
	if perGet > 8_900 && !raceEnabled {
		t.Errorf("one dataset GET allocates %d B, want at most 8900", perGet)
	}
	// The recorder still sees the status. The middleware counts a request
	// after its handler returns, which can be after the client has read
	// the last byte, so the last GET may take a moment to show.
	reqs, _ := srv.metrics.requestInstruments("GET /v1/jobs/{id}/dataset", "2xx")
	for deadline := time.Now().Add(5 * time.Second); reqs.Value() < gets+2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := reqs.Value(); got != gets+2 {
		t.Errorf("%d dataset GETs counted as 2xx, want %d", got, gets+2)
	}
}
