package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/freelist"
)

// TestUploadEnvelopeMatchesMarshal: the hand-written request envelope is
// json.Marshal's of the route's request struct, whatever the worker ID
// and lease token hold — quick's strings are mostly non-ASCII; the
// fixed ones need escaping — and for a nil result.
func TestUploadEnvelopeMatchesMarshal(t *testing.T) {
	type request struct {
		Worker string                    `json:"worker"`
		Lease  string                    `json:"lease"`
		Result *campaign.ShardResultWire `json:"result"`
	}
	wire := &campaign.ShardResultWire{Version: campaign.ShardWireVersion, Vantage: `<"Zürich">`,
		Traces: []dataset.Trace{{Vantage: "v", Observations: []dataset.Observation{{HTTPStatus: 200}}}}}
	var e uploadEncoder
	matches := func(worker, lease string, res *campaign.ShardResultWire) bool {
		want, err := json.Marshal(request{worker, lease, res})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.encode(worker, lease, res, false); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(e.buf.Bytes(), want)
	}
	if err := quick.Check(func(worker, lease string) bool { return matches(worker, lease, wire) }, nil); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", `w"1\`, "<w&1>", "tab\t\x00\x7f", "bad \xff utf8", "\u2028"} {
		if !matches(s, s, wire) || !matches(s, s, nil) {
			t.Errorf("envelope for worker/lease %q differs from json.Marshal", s)
		}
	}
}

// TestEncoderRecycling pins the free list's rules: an encoder comes back
// after a completed exchange and is the one the next upload uses; it
// does not come back while a request body over its buffer is unread;
// clients derived with With* share one list.
func TestEncoderRecycling(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"status":"accepted"}`)
	}))
	defer ts.Close()
	client := New(ts.URL)
	wire := &campaign.ShardResultWire{Version: campaign.ShardWireVersion}
	ctx := context.Background()

	up, err := client.PrepareShardResult("j", 0, "w", "l", wire)
	if err != nil {
		t.Fatal(err)
	}
	first := up.enc
	if _, err := up.Send(ctx); err != nil {
		t.Fatal(err)
	}
	up.Release()
	up.Release() // idempotent
	if n := client.encoders.Len(); n != 1 {
		t.Fatalf("free list holds %d encoders after one completed upload, want 1", n)
	}

	up, err = client.WithUploadCompression(false).PrepareShardResult("j", 1, "w", "l", wire)
	if err != nil {
		t.Fatal(err)
	}
	if up.enc != first {
		t.Error("the second upload did not reuse the first one's encoder")
	}
	// A body the transport still holds: neither drained nor closed.
	body := up.newBody(up.enc.buf.Bytes())
	up.Release()
	if n := client.encoders.Len(); n != 0 {
		t.Fatalf("an encoder with an unread request body went back on the free list (%d free)", n)
	}
	// Closing it later must not resurrect anything, and reads nothing.
	body.Close()
	if n, err := body.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Errorf("Read after Close = %d, %v; want 0, EOF", n, err)
	}

	// Over the retention cap: dropped.
	big := &uploadEncoder{}
	big.buf.Grow(freelist.RetainBytes + 1)
	client.putEncoder(big)
	if n := client.encoders.Len(); n != 0 {
		t.Fatalf("an encoder above the retention cap was kept (%d free)", n)
	}
	for i := 0; i < freelist.Slots+2; i++ {
		client.putEncoder(&uploadEncoder{})
	}
	if n := client.encoders.Len(); n != freelist.Slots {
		t.Fatalf("free list holds %d encoders, want it bounded at %d", n, freelist.Slots)
	}
}
