package apiclient_test

// Shard-result upload encoding and reply bounds, asserted from outside
// the package against stub coordinators.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/packet"
)

// uploadRequest mirrors the result route's request body.
type uploadRequest struct {
	Worker string                    `json:"worker"`
	Lease  string                    `json:"lease"`
	Result *campaign.ShardResultWire `json:"result"`
}

func testWire(shard, servers int) *campaign.ShardResultWire {
	w := &campaign.ShardResultWire{
		Version:  campaign.ShardWireVersion,
		SpecHash: strings.Repeat("ab", 32),
		Shard:    shard,
		Vantage:  "Glasgow <wired> & \"quoted\"", // HTML-escaped by both encoders alike
		Traces:   []dataset.Trace{{Vantage: "Glasgow", Batch: 1, Started: time.Hour}},
	}
	for i := 0; i < servers; i++ {
		addr := packet.AddrFrom4(10, byte(shard), byte(i>>8), byte(i))
		w.Servers = append(w.Servers, addr)
		w.Traces[0].Observations = append(w.Traces[0].Observations,
			dataset.Observation{Server: addr, UDPReachable: i%3 != 0, UDPAttempts: uint8(1 + i%6), HTTPStatus: 200})
	}
	return w
}

// referenceBody is the contract: json.Marshal of the request, gzipped at
// the default level in one Write when compressed.
func referenceBody(t *testing.T, req uploadRequest, compressed bool) []byte {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !compressed {
		return raw
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// capture is a stub result route: it records every request body and
// fails the first `fail` requests with a 503 envelope.
type capture struct {
	mu       sync.Mutex
	fail     int
	bodies   [][]byte
	encoding []string
	lengths  []int64
}

func (c *capture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	c.mu.Lock()
	c.bodies = append(c.bodies, body)
	c.encoding = append(c.encoding, r.Header.Get("Content-Encoding"))
	c.lengths = append(c.lengths, r.ContentLength)
	failing := len(c.bodies) <= c.fail
	c.mu.Unlock()
	if failing {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"unavailable","message":"try again"}}`)
		return
	}
	io.WriteString(w, `{"job":"j-000001","index":0,"status":"accepted"}`)
}

// TestUploadBodyMatchesMarshal: the streamed, recycled encoder produces
// exactly gzip(json.Marshal(req)) — and plain json.Marshal(req) with
// compression off — upload after upload, including a smaller upload
// through an encoder a larger one just used.
func TestUploadBodyMatchesMarshal(t *testing.T) {
	for _, compressed := range []bool{true, false} {
		t.Run(fmt.Sprintf("gzip=%v", compressed), func(t *testing.T) {
			stub := &capture{}
			ts := httptest.NewServer(stub)
			defer ts.Close()
			client := apiclient.New(ts.URL).WithUploadCompression(compressed)
			ctx := context.Background()

			sizes := []int{400, 3, 0, 2500}
			for i, servers := range sizes {
				wire := testWire(i, servers)
				lease := fmt.Sprintf("j-000001/%d/1", i)
				ack, err := client.PushShardResult(ctx, "j-000001", i, "w1", lease, wire)
				if err != nil || ack.Status != "accepted" {
					t.Fatalf("upload %d = %+v, %v", i, ack, err)
				}
				want := referenceBody(t, uploadRequest{Worker: "w1", Lease: lease, Result: wire}, compressed)
				got := stub.bodies[i]
				if !bytes.Equal(got, want) {
					t.Fatalf("upload %d (%d servers): body is %d bytes, reference encoding is %d bytes and differs",
						i, servers, len(got), len(want))
				}
				if stub.lengths[i] != int64(len(want)) {
					t.Errorf("upload %d: Content-Length %d, body %d", i, stub.lengths[i], len(want))
				}
				if wantEnc := map[bool]string{true: "gzip", false: ""}[compressed]; stub.encoding[i] != wantEnc {
					t.Errorf("upload %d: Content-Encoding %q, want %q", i, stub.encoding[i], wantEnc)
				}
			}
		})
	}
}

// TestPaperScaleUploadMatchesMarshal is the same contract at the size
// that crosses the encoder's chunk many times over: a 6 × 2500 result
// (≈ 2 MB of JSON, some thirty chunks into the gzip stream) is still
// the bytes of one Write of json.Marshal's output, first and on a
// recycled encoder.
func TestPaperScaleUploadMatchesMarshal(t *testing.T) {
	stub := &capture{}
	ts := httptest.NewServer(stub)
	defer ts.Close()
	client := apiclient.New(ts.URL)
	for i, servers := range []int{2500, 700, 2500} {
		wire := testWire(i, servers)
		for k := 1; k < 6; k++ {
			next := wire.Traces[0]
			next.Index = k
			wire.Traces = append(wire.Traces, next)
		}
		if _, err := client.PushShardResult(context.Background(), "j-000001", i, "w1", "lease", wire); err != nil {
			t.Fatal(err)
		}
		want := referenceBody(t, uploadRequest{Worker: "w1", Lease: "lease", Result: wire}, true)
		if !bytes.Equal(stub.bodies[i], want) {
			t.Fatalf("upload %d (6 × %d): body is %d bytes, reference encoding is %d bytes and differs",
				i, servers, len(stub.bodies[i]), len(want))
		}
	}
}

// TestPreparedUploadResendsSameBytes: an upload is encoded when it is
// prepared, not when it is sent — the wire changing afterwards changes
// nothing — and each retry of a failed send carries the same bytes.
func TestPreparedUploadResendsSameBytes(t *testing.T) {
	stub := &capture{fail: 2}
	ts := httptest.NewServer(stub)
	defer ts.Close()
	client := apiclient.New(ts.URL)
	ctx := context.Background()

	wire := testWire(4, 200)
	want := referenceBody(t, uploadRequest{Worker: "w1", Lease: "l", Result: wire}, true)
	up, err := client.PrepareShardResult("j-000001", 4, "w1", "l", wire)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Release()
	wire.Vantage = "changed after prepare"
	wire.Traces = nil

	for attempt := 1; attempt <= 3; attempt++ {
		ack, err := up.Send(ctx)
		if attempt < 3 {
			if !apiclient.IsCode(err, "unavailable") || !apiclient.IsTransient(err) {
				t.Fatalf("attempt %d = %+v, %v; want a transient 503 unavailable", attempt, ack, err)
			}
			continue
		}
		if err != nil || ack.Status != "accepted" {
			t.Fatalf("attempt %d = %+v, %v; want accepted", attempt, ack, err)
		}
	}
	if len(stub.bodies) != 3 {
		t.Fatalf("coordinator saw %d requests, want 3", len(stub.bodies))
	}
	for i, body := range stub.bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("attempt %d carried %d bytes that differ from the prepared encoding (%d bytes)",
				i+1, len(body), len(want))
		}
	}
}

// TestReplyBounds: the client never buffers more than its cap for a
// kind of reply, whether the size is declared or merely arrives, and
// reports a *ReplyTooLargeError; honest replies of declared and
// undeclared length both come back whole.
func TestReplyBounds(t *testing.T) {
	const jsonCap, datasetCap = 16 << 20, 1 << 30
	page := `{"jobs":[{"id":"j-000001","state":"running"}]}`
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("state") {
		case "declared": // a header alone: nothing is sent, nothing must be reserved
			w.Header().Set("Content-Length", fmt.Sprint(jsonCap+1))
		case "streamed": // no Content-Length; the bytes just keep coming
			w.(http.Flusher).Flush()
			chunk := bytes.Repeat([]byte{' '}, 1<<20)
			for i := 0; i <= jsonCap>>20; i++ {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		case "chunked":
			w.(http.Flusher).Flush()
			io.WriteString(w, page)
		default:
			w.Header().Set("Content-Length", fmt.Sprint(len(page)))
			io.WriteString(w, page)
		}
	})
	mux.HandleFunc("GET /v1/runs/{key}/dataset", func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("key") {
		case "huge":
			w.Header().Set("Content-Length", fmt.Sprint(datasetCap+1))
		case "short": // declares more than it sends
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, "only this")
		case "lying": // declares the whole cap, sends a few bytes
			w.Header().Set("Content-Length", fmt.Sprint(datasetCap))
			io.WriteString(w, "only this")
		default:
			io.WriteString(w, "{}\n")
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client := apiclient.New(ts.URL)
	ctx := context.Background()

	wantTooLarge := func(what string, err error, limit int64) {
		t.Helper()
		var tooLarge *apiclient.ReplyTooLargeError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != limit {
			t.Errorf("%s: err = %v, want a ReplyTooLargeError at %d bytes", what, err, limit)
		}
	}
	_, err := client.Jobs(ctx, apiclient.JobsOptions{State: "declared"})
	wantTooLarge("oversized Content-Length on a JSON reply", err, jsonCap)
	_, err = client.Jobs(ctx, apiclient.JobsOptions{State: "streamed"})
	wantTooLarge("oversized chunked JSON reply", err, jsonCap)
	_, err = client.RunDataset(ctx, "huge")
	wantTooLarge("oversized Content-Length on a dataset", err, datasetCap)

	if _, err := client.RunDataset(ctx, "short"); err == nil {
		t.Error("a dataset shorter than its Content-Length was returned as complete")
	}
	// A Content-Length inside the cap is still only a hint: the bytes it
	// promises are not reserved before they arrive.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = client.RunDataset(ctx, "lying")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a dataset shorter than its 1 GiB Content-Length was returned as complete")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("a 1 GiB Content-Length with a 9-byte body allocated %d MiB; the header must reserve at most 32 MiB", got>>20)
	}
	for _, state := range []string{"", "chunked"} {
		got, err := client.Jobs(ctx, apiclient.JobsOptions{State: state})
		if err != nil || len(got.Jobs) != 1 || got.Jobs[0].ID != "j-000001" {
			t.Errorf("honest reply (state=%q) = %+v, %v", state, got, err)
		}
	}
	if got, err := client.RunDataset(ctx, "ok"); err != nil || string(got) != "{}\n" {
		t.Errorf("honest dataset = %q, %v", got, err)
	}
}
