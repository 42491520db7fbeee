package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/campaign/goldentest"
	"repro/internal/dataset"
	"repro/internal/freelist"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

func gzipBytes(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// uploadRequest is the shard-result route's request as encoding/json
// reads it: the test oracle for what the scan takes.
type uploadRequest struct {
	Worker string                    `json:"worker"`
	Lease  string                    `json:"lease"`
	Result *campaign.ShardResultWire `json:"result"`
}

// sampleUpload is a small but complete shard-result request, as JSON.
func sampleUpload(tb testing.TB) []byte {
	tb.Helper()
	raw, err := json.Marshal(uploadRequest{
		Worker: "w1",
		Lease:  "j-000001/3/1",
		Result: sampleWire(3, 40),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func sampleWire(shard, servers int) *campaign.ShardResultWire {
	w := &campaign.ShardResultWire{
		Version:  campaign.ShardWireVersion,
		SpecHash: "0123456789abcdef",
		Shard:    shard,
		Vantage:  "Glasgow (wired)",
		Traces:   []dataset.Trace{{Vantage: "Glasgow (wired)", Batch: 1, Started: time.Hour}},
	}
	for i := 0; i < servers; i++ {
		addr := packet.AddrFrom4(10, byte(shard), byte(i>>8), byte(i))
		w.Servers = append(w.Servers, addr)
		w.Traces[0].Observations = append(w.Traces[0].Observations,
			dataset.Observation{Server: addr, UDPReachable: true, UDPAttempts: 1, HTTPStatus: 200})
	}
	return w
}

// randomWire is a shard result shaped by the bits of shape: up to 300
// servers, one to four traces, observations whose fields vary, and a
// CE-mark sample or none.
func randomWire(shape uint64) *campaign.ShardResultWire {
	w := sampleWire(int(shape%13), int(shape>>4%301))
	for k := int(shape >> 13 % 4); k > 0; k-- {
		tr := w.Traces[0]
		tr.Observations = slices.Clone(tr.Observations)
		tr.Index, tr.Batch = len(w.Traces), k
		w.Traces = append(w.Traces, tr)
	}
	for k := range w.Traces {
		for i := range w.Traces[k].Observations {
			o := &w.Traces[k].Observations[i]
			bits := shape >> ((i + k) % 48)
			o.UDPECTReachable, o.TCPReachable, o.TCPECNReachable = bits&1 != 0, bits&2 != 0, bits&4 != 0
			o.UDPAttempts, o.UDPECTAttempts, o.HTTPStatus = uint8(bits>>3), uint8(bits>>7), uint16(bits>>5)
		}
	}
	w.Stats = campaign.ShardStats{Shard: w.Shard, Vantage: w.Vantage, Traces: len(w.Traces), Events: shape >> 20}
	if shape>>15&1 != 0 {
		w.Congestion = &analysis.CEMarkSample{Vantage: w.Vantage, InECT: shape >> 40, InCE: shape >> 50, Utilization: 0.85}
	}
	return w
}

// captureTransport answers every request with an acceptance and keeps
// the last request body: what apiclient sends, without a network.
type captureTransport struct{ body []byte }

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	c.body = body
	const ack = `{"status":"accepted"}`
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		ContentLength: int64(len(ack)), Body: io.NopCloser(strings.NewReader(ack))}, nil
}

// wantBadRequest asserts a decode failure is the typed 400 the handler
// relays, not a bare error.
func wantBadRequest(t *testing.T, err error) {
	t.Helper()
	var f *apiFault
	if !errors.As(err, &f) || f.status != http.StatusBadRequest || f.code != apiclient.CodeBadRequest {
		t.Fatalf("decode error = %#v, want a 400 %s fault", err, apiclient.CodeBadRequest)
	}
}

// wantRetainedWithinCap asserts nothing on the free list holds a buffer
// above the retention cap.
func wantRetainedWithinCap(t *testing.T, p *ingestPool) {
	t.Helper()
	n := p.list.Len()
	if n > freelist.Slots {
		t.Fatalf("free list holds %d buffers, cap is %d", n, freelist.Slots)
	}
	held := make([]*ingestBuf, n)
	for i := range held {
		held[i] = p.list.Get()
	}
	for i := n - 1; i >= 0; i-- {
		b := held[i]
		if b.body.Cap() > freelist.RetainBytes || b.scan.Cap() > freelist.RetainBytes {
			t.Fatalf("retained buffers of %d/%d bytes, cap is %d",
				b.body.Cap(), b.scan.Cap(), freelist.RetainBytes)
		}
		p.list.Put(b)
	}
}

// mergedLines is what the merge files for held results: the dataset
// lines of their traces in order, numbered from 0.
func mergedLines(t *testing.T, results ...heldResult) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := new(jobMgr).writeDataset(&out, results); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzShardResultDecode holds the upload accept path — the scan, the
// only reader of an upload — to encoding/json as an oracle, in two
// directions:
//
//   - whatever body it accepts, gzip over data (or data itself, when
//     isGzip), encoding/json reads from the same inflated bytes as a
//     request with a result, with the same worker, lease and header, and
//     the held body files the traces the decoded result does;
//   - whatever apiclient sends for a random result under a plain worker
//     ID (shape and worker) it accepts, reading back what was sent.
//
// The outcome is a value or a typed 400 — never a panic, never more
// than limit+1 inflated bytes, never an over-cap buffer back on the
// free list — and what was accepted owes nothing to the buffers it came
// through but the body, which the accept path copies before the handler
// returns its buffer.
func FuzzShardResultDecode(f *testing.F) {
	const limit = 64 << 10
	var seeds int
	add := func(data []byte, isGzip bool) {
		workers := []string{"w1", "bench-w3", `w"1`, "w<3>", "", "wörker"}
		f.Add(data, isGzip, workers[seeds%len(workers)], uint64(seeds)*0x9e3779b97f4a7c15)
		seeds++
	}
	valid := sampleUpload(f)
	gz := gzipBytes(f, valid)
	add(gz, true)
	add(valid, false)
	add(valid, true) // an identity upload: JSON that is not gzip
	add(gz, false)   // gzip inside gzip
	add(gz[:len(gz)/2], true)
	add(gzipBytes(f, make([]byte, 1<<20)), true) // bomb: 1 KB that inflates to 1 MiB
	add(append(append([]byte(nil), gz...), "trailing garbage"...), true)
	add([]byte{}, true)
	add([]byte(`{"worker":"w","lease":"l","result":null}`), false)
	// The observation's narrow fields at and past their edges: what a
	// uint8 or uint16 cannot hold, the scan refuses as the decoder does.
	for _, v := range []string{"-1", "0", "255", "256", "65535", "65536"} {
		add(bytes.Replace(valid, []byte(`"udp_attempts":1`), []byte(`"udp_attempts":`+v), 1), false)
		add(bytes.Replace(valid, []byte(`"udp_attempts":1`), []byte(`"udp_attempts":1,"udp_ect_attempts":`+v), 1), false)
		add(gzipBytes(f, bytes.Replace(valid, []byte(`"http":200`), []byte(`"http":`+v), 1)), true)
	}
	congested := sampleWire(5, 3)
	congested.Congestion = &analysis.CEMarkSample{Vantage: "Glasgow (wired)", InECT: 9, InCE: 1, Utilization: 0.85}
	congested.Traces = append(congested.Traces, congested.Traces[0])
	congested.Stats = campaign.ShardStats{Shard: 5, Vantage: "Glasgow (wired)", Traces: 2, Elapsed: 1500 * time.Millisecond}
	for _, req := range []uploadRequest{
		{Worker: "w2", Lease: "j-000002.5.1", Result: congested},
		{Worker: "w<3>", Lease: "l", Result: congested}, // an escaped worker ID, which the scan refuses
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		add(raw, false)
		add(bytes.Replace(raw, []byte(`,"stats":`), []byte(`,"congestion":null,"stats":`), 1), false)
		add(bytes.Replace(raw, []byte(`"servers":[`), []byte(`"servers": [`), 1), false)
		add(bytes.Replace(raw, []byte(`"Shard":5`), []byte(`"Shard":5,"Shard":6`), 1), false)
		add(bytes.Replace(raw, []byte(`"traces":[`), []byte(`"traces":[],"traces":[`), 1), false)
	}
	// Canonical bodies of exactly limit and limit+1 inflated bytes: the
	// budget, not the grammar, decides.
	for _, size := range []int{limit, limit + 1} {
		req := uploadRequest{Lease: "l", Result: sampleWire(3, 400)}
		base, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		req.Worker = string(bytes.Repeat([]byte("w"), size-len(base)))
		raw, err := json.Marshal(req)
		if err != nil || len(raw) != size {
			f.Fatalf("sized seed: %d bytes, %v", len(raw), err)
		}
		add(raw, false)
	}

	var pool ingestPool
	capture := &captureTransport{}
	client := apiclient.NewWithHTTPClient("http://coordinator", &http.Client{Transport: capture})
	f.Fuzz(func(t *testing.T, data []byte, isGzip bool, worker string, shape uint64) {
		body := bytes.Clone(data) // the engine's copy must not be scribbled on below
		if !isGzip {
			body = gzipBytes(t, data)
		}
		b := pool.get()
		u, err := b.acceptUpload(body, limit)
		if b.lim.N < 0 {
			t.Fatalf("inflated past the %d-byte limit (%d of the budget left)", limit, b.lim.N)
		}
		if err != nil {
			var f *apiFault
			if !errors.As(err, &f) || f.status != http.StatusBadRequest {
				t.Fatalf("accept error = %#v, want a typed 400", err)
			}
		} else {
			// The oracle: encoding/json over the same inflated bytes.
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("accepted a body gzip cannot open: %v", err)
			}
			inflated, err := io.ReadAll(zr)
			var req uploadRequest
			if err != nil || json.Unmarshal(inflated, &req) != nil || req.Result == nil {
				t.Fatalf("accepted a body encoding/json refuses: %v %v", err, json.Unmarshal(inflated, &req))
			}
			want := wireResult(req.Result)
			check := func(when string) {
				if u.worker != req.Worker || u.lease != req.Lease || !reflect.DeepEqual(u.result.resultHead, want.resultHead) {
					t.Fatalf("%s: accepted %q %q %+v, encoding/json read %q %q %+v",
						when, u.worker, u.lease, u.result.resultHead, req.Worker, req.Lease, want.resultHead)
				}
			}
			check("accepted")
			u.result.body = bytes.Clone(body) // the accept path attaches a copy
			if got, ref := mergedLines(t, u.result), mergedLines(t, want); !bytes.Equal(got, ref) {
				t.Fatalf("the held result files\n%s\nthe decoded one\n%s", got, ref)
			}
			// Scribble over everything the accept path read from: the
			// header must not change.
			for _, buf := range [][]byte{body, b.body.Bytes()} {
				for i := range buf {
					buf[i] = 0xff
				}
			}
			b.scan.Reset(bytes.NewReader(bytes.Repeat([]byte{0xff}, b.scan.Cap())))
			b.scan.Rest() // the window, refilled
			check("after its buffers were overwritten")
		}
		pool.put(b)
		wantRetainedWithinCap(t, &pool)

		// What apiclient sends, the scan takes.
		if !dataset.PlainString(worker) {
			return
		}
		wire := randomWire(shape)
		if _, err := client.PushShardResult(context.Background(), "j-000001", 0, worker, "j-000001.0.1", wire); err != nil {
			t.Fatal(err)
		}
		b = pool.get()
		defer pool.put(b)
		u, err = b.acceptUpload(capture.body, maxResultBytes)
		if err != nil {
			t.Fatalf("the scan refused apiclient's upload of a %d-trace result as %q: %v", len(wire.Traces), worker, err)
		}
		want := wireResult(wire)
		if u.worker != worker || u.lease != "j-000001.0.1" || !reflect.DeepEqual(u.result.resultHead, want.resultHead) {
			t.Fatalf("read %q %q %+v back from apiclient's upload of %q %+v",
				u.worker, u.lease, u.result.resultHead, worker, want.resultHead)
		}
		u.result.body = capture.body
		if got, ref := mergedLines(t, u.result), mergedLines(t, want); !bytes.Equal(got, ref) {
			t.Fatalf("apiclient's upload files\n%s\nthe result it carried\n%s", got, ref)
		}
	})
}

// TestIngestBombIsBounded: an upload whose canonical prefix goes on
// into an endless list of traces — ≈ 110 KB of gzip that inflates to
// 16 MiB — is a 400 at the upload route. The scan stops at limit+1
// inflated bytes and allocates no more than its window on the way,
// which holds a trace at a time; the buffer that absorbed the bomb is
// reusable, and a valid upload is accepted through it afterwards.
func TestIngestBombIsBounded(t *testing.T) {
	const limit = 1 << 20
	defer func(old int64) { maxResultBytes = old }(maxResultBytes)
	maxResultBytes = limit

	valid := sampleUpload(t)
	i := bytes.Index(valid, []byte(`"traces":[`)) + len(`"traces":[`)
	j := bytes.Index(valid, []byte(`],"servers":`))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(valid[:j])
	for n := 0; n < 16<<20; n += j - i + 1 {
		zw.Write([]byte(","))
		zw.Write(valid[i:j])
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := buf.Bytes()

	_, ts := newPoolServer(t, Config{}, 0)
	id, claim, wires := claimPinned(t, apiclient.New(ts.URL))
	if status, code := postResult(t, ts, id, claim.Shards[0].Index, bomb, true); status != http.StatusBadRequest || code != apiclient.CodeBadRequest {
		t.Fatalf("a bomb upload = %d %s, want 400 %s", status, code, apiclient.CodeBadRequest)
	}

	var pool ingestPool
	b := pool.get()
	wantBadRequest(t, func() error { _, err := b.acceptUpload(bomb, limit); return err }()) // warms the window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := b.acceptUpload(bomb, limit)
	runtime.ReadMemStats(&after)
	wantBadRequest(t, err)
	if b.lim.N != 0 {
		t.Fatalf("the scan stopped %d bytes short of the budget", b.lim.N)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d gzip bytes inflated to the %d-byte budget: %d bytes allocated, scan window %d bytes",
		len(bomb), limit+1, alloc, b.scan.Cap())
	if !raceEnabled && alloc > uint64(b.scan.Cap()) {
		t.Fatalf("a bomb inflating %d bytes allocated %d bytes; the scan window is %d", limit+1, alloc, b.scan.Cap())
	}
	pool.put(b)

	b = pool.get()
	if u, err := b.acceptUpload(gzipBytes(t, valid), limit); err != nil || u.result.traces != 1 {
		t.Fatalf("valid upload after a bomb = %+v, %v", u, err)
	}
	pool.put(b)
	if ack, err := apiclient.New(ts.URL).PushShardResult(context.Background(), id, claim.Shards[0].Index, "w1",
		claim.Shards[0].Lease, wires[0]); err != nil || ack.Status != apiclient.ResultAccepted {
		t.Fatalf("upload after the bomb = %+v, %v", ack, err)
	}
}

// TestIngestRetentionCap: buffers that grew past the cap are dropped on
// put — a single huge upload does not stay resident — while ordinary
// ones are kept, at most freelist.Slots of them.
func TestIngestRetentionCap(t *testing.T) {
	var pool ingestPool
	big := pool.get()
	// After a trace's opening, the scan's window reads 9 MiB of spaces
	// looking for the observations.
	huge := bytes.Repeat([]byte{' '}, freelist.RetainBytes+1<<20)
	big.body.Write(huge)
	big.scan.Reset(bytes.NewReader(append([]byte(`{"vantage":"`), huge...)))
	big.scan.Trace()
	if big.body.Cap() <= freelist.RetainBytes || big.scan.Cap() <= freelist.RetainBytes {
		t.Fatalf("test setup: buffers are %d/%d bytes, want both above the cap",
			big.body.Cap(), big.scan.Cap())
	}
	pool.put(big)
	wantRetainedWithinCap(t, &pool)
	if got := pool.get(); got != big {
		t.Fatal("the shell of an over-cap buffer should still be reused")
	} else if got.body.Cap() != 0 || got.scan.Cap() != 0 {
		t.Fatalf("over-cap buffers survived put: %d/%d bytes", got.body.Cap(), got.scan.Cap())
	}

	bufs := make([]*ingestBuf, freelist.Slots+3)
	for i := range bufs {
		bufs[i] = pool.get()
		bufs[i].body.Grow(4 << 10)
	}
	for _, b := range bufs {
		pool.put(b)
	}
	wantRetainedWithinCap(t, &pool)
	if n := pool.list.Len(); n != freelist.Slots {
		t.Fatalf("free list holds %d buffers after %d puts, want %d", n, len(bufs), freelist.Slots)
	}
	if kept := pool.get(); kept.body.Cap() < 4<<10 {
		t.Fatalf("an ordinary buffer lost its %d-byte capacity on put", 4<<10)
	}
}

// TestReadBodyHintIsCapped: Content-Length sizes the body buffer only up
// to bodyHintBytes — a header claiming the maximum reserves no more than
// that — and the body that actually arrives is read whole either way.
func TestReadBodyHintIsCapped(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 3<<10)
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
	r.ContentLength = maxResultBytes // the header lies
	var b ingestBuf
	got, err := b.readBody(httptest.NewRecorder(), r, maxResultBytes)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("readBody = %d bytes, %v; want the %d-byte payload", len(got), err, len(payload))
	}
	if c := b.body.Cap(); c > 2*bodyHintBytes {
		t.Fatalf("a Content-Length of %d reserved %d bytes; the hint is capped at %d",
			maxResultBytes, c, bodyHintBytes)
	}

	// Past the limit the read is refused with the typed 400.
	r = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
	_, err = b.readBody(httptest.NewRecorder(), r, int64(len(payload)-1))
	wantBadRequest(t, err)
}

// heldKind reports how job id holds shard idx's accepted result.
func heldKind(srv *Server, id string, idx int) string {
	srv.mgr.mu.Lock()
	defer srv.mgr.mu.Unlock()
	switch r := &srv.mgr.jobs[id].results[idx]; {
	case r.wire != nil:
		return "decoded"
	case r.body != nil:
		return "body"
	}
	return "nothing"
}

// TestCoordinatorHoldsCompressedResults: what a job keeps of k accepted
// paper-scale uploads until the merge is their compressed bodies — the
// bytes the journal holds — plus one server list (10 KB) and a small
// record per planned shard: within 10 % of the bodies' sum after twelve
// of the thirteen, where the decoded observations were ≈ 10 times that.
// The job then files exactly the dataset the decoded uploads make.
func TestCoordinatorHoldsCompressedResults(t *testing.T) {
	srv, ts := newPoolServer(t, Config{}, 0)
	client := apiclient.New(ts.URL)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(paperSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*dataset.Dataset
	compressed := 0
	for k, sh := range claim.Shards {
		wire, _ := paperUpload(t, claim.SpecHash, sh.ShardInfo)
		parts = append(parts, &dataset.Dataset{Traces: wire.Traces})
		// The bytes apiclient sends (TestUploadBodyMatchesMarshal).
		raw, err := json.Marshal(uploadRequest{Worker: "w1", Lease: sh.Lease, Result: wire})
		if err != nil {
			t.Fatal(err)
		}
		compressed += len(gzipBytes(t, raw))
		if ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wire); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload %d = %+v, %v", k, ack, err)
		}
		if k == len(claim.Shards)-1 {
			break // that one completed the plan: the job is merged and holds nothing
		}
		if kind := heldKind(srv, job.ID, sh.Index); kind != "body" {
			t.Fatalf("upload %d is held %s, want as its body", k, kind)
		}
		const serverList, header = 2500 * 4, 512
		held := HeldResultBytes(srv, job.ID)
		if held > compressed+serverList+len(claim.Shards)*header || (k == len(claim.Shards)-2 && held > compressed*11/10) {
			t.Fatalf("after %d uploads of %d compressed bytes the job holds %d bytes (%.3f×)",
				k+1, compressed, held, float64(held)/float64(compressed))
		}
		if k == len(claim.Shards)-2 {
			t.Logf("after %d uploads of %d compressed bytes the job holds %d bytes (%.3f×)",
				k+1, compressed, held, float64(held)/float64(compressed))
		}
	}
	var want bytes.Buffer
	if err := dataset.Write(&want, dataset.Merge(parts...)); err != nil {
		t.Fatal(err)
	}
	report, err := client.JobReport(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(want.Bytes())); report.DatasetSHA256 != got || report.DatasetBytes != int64(want.Len()) {
		t.Fatalf("filed %s (%d bytes), the decoded uploads merge to %s (%d bytes)",
			report.DatasetSHA256, report.DatasetBytes, got, want.Len())
	}
}

// TestNonCanonicalUploadRefused: an upload in a form no worker writes —
// pretty-printed, identity-encoded, or under a worker ID that must be
// escaped — is refused with a 400 bad_request and leaves nothing held;
// the canonical upload under the same lease is then accepted, held as
// its body, and the job files the pinned bytes.
func TestNonCanonicalUploadRefused(t *testing.T) {
	srv, ts := newPoolServer(t, Config{}, 0)
	client := apiclient.New(ts.URL)
	id, claim, wires := claimPinned(t, client)
	for k, sh := range claim.Shards {
		canonical, err := json.Marshal(uploadRequest{Worker: "w1", Lease: sh.Lease, Result: wires[k]})
		if err != nil {
			t.Fatal(err)
		}
		pretty, err := json.MarshalIndent(uploadRequest{Worker: "w1", Lease: sh.Lease, Result: wires[k]}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		escaped, err := json.Marshal(uploadRequest{Worker: "w<1>", Lease: sh.Lease, Result: wires[k]})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			body []byte
			gz   bool
		}{
			{"pretty-printed", gzipBytes(t, pretty), true},
			{"identity", canonical, false},
			{"identity labelled gzip", canonical, true},
			{"escaped worker ID", gzipBytes(t, escaped), true},
		} {
			if status, code := postResult(t, ts, id, sh.Index, c.body, c.gz); status != http.StatusBadRequest || code != apiclient.CodeBadRequest {
				t.Fatalf("%s upload %d = %d %s, want 400 %s", c.name, k, status, code, apiclient.CodeBadRequest)
			}
		}
		if got := heldKind(srv, id, sh.Index); got != "nothing" {
			t.Fatalf("after the refused uploads shard %d is held as %s", k, got)
		}
		if ack, err := client.PushShardResult(context.Background(), id, sh.Index, "w1", sh.Lease, wires[k]); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("canonical retry of upload %d = %+v, %v", k, ack, err)
		}
		if k < len(claim.Shards)-1 {
			if got := heldKind(srv, id, sh.Index); got != "body" {
				t.Fatalf("upload %d is held %s, want as its body", k, got)
			}
		}
	}
	if got := jobReport(t, ts, id).DatasetSHA256; got != goldentest.Small(t, campaign.ScenarioUncongested).Dataset {
		t.Fatalf("filed %s, want the golden table's uncongested hash", got)
	}
}

// TestOutOfRangeUploadRefused: an upload whose observation carries a
// value the row cannot hold — "udp_attempts":256, which a uint8 would
// wrap to 0 — is refused exactly as a malformed upload is: the same
// 400, nothing journaled, nothing held, the lease still good. After the
// genuine uploads the job files the pinned hash.
func TestOutOfRangeUploadRefused(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newPoolServer(t, Config{DataDir: dir}, 0)
	client := apiclient.New(ts.URL)
	id, claim, wires := claimPinned(t, client)

	sh := claim.Shards[0]
	good, err := json.Marshal(uploadRequest{Worker: "w1", Lease: sh.Lease, Result: wires[0]})
	if err != nil {
		t.Fatal(err)
	}
	wide := bytes.Replace(good, []byte(`"udp_attempts":1,`), []byte(`"udp_attempts":256,`), 1)
	if bytes.Equal(wide, good) {
		t.Fatal("test setup: the shard's upload has no udp_attempts of 1")
	}
	malformedStatus, malformedCode := postResult(t, ts, id, sh.Index, gzipBytes(t, good[:len(good)/2]), true)
	if malformedStatus != http.StatusBadRequest || malformedCode != apiclient.CodeBadRequest {
		t.Fatalf("a malformed upload = %d %s, want 400 %s", malformedStatus, malformedCode, apiclient.CodeBadRequest)
	}
	if status, code := postResult(t, ts, id, sh.Index, gzipBytes(t, wide), true); status != malformedStatus || code != malformedCode {
		t.Fatalf("an upload with udp_attempts 256 = %d %s; a malformed one = %d %s",
			status, code, malformedStatus, malformedCode)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "journal", id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	if held, journaled := heldKind(srv, id, sh.Index), bytes.Count(wal, []byte(`"t":"result"`)); held != "nothing" || journaled != 0 {
		t.Fatalf("after the refused uploads the shard is held as %s and the journal holds %d results; want nothing and 0",
			held, journaled)
	}

	for k, sh := range claim.Shards {
		if ack, err := client.PushShardResult(context.Background(), id, sh.Index, "w1", sh.Lease, wires[k]); err != nil || ack.Status != apiclient.ResultAccepted {
			t.Fatalf("upload %d = %+v, %v", k, ack, err)
		}
	}
	if got := jobReport(t, ts, id).DatasetSHA256; got != goldentest.Small(t, campaign.ScenarioUncongested).Dataset {
		t.Fatalf("filed %s, want the golden table's uncongested hash", got)
	}
}

// claimPinned submits that campaign as a distributed job, claims every
// shard as w1 and executes them: the job, the claim, and each claimed
// shard's result in claim order.
func claimPinned(t *testing.T, client *apiclient.Client) (string, apiclient.Claim, []*campaign.ShardResultWire) {
	t.Helper()
	spec := pinnedSpec(campaign.ScenarioUncongested, campaign.ExecutionDistributed)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := campaign.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parsed.Config()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	wires := make([]*campaign.ShardResultWire, len(claim.Shards))
	for k, sh := range claim.Shards {
		if wires[k], err = campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice); err != nil {
			t.Fatal(err)
		}
		wires[k].SpecHash = claim.SpecHash
	}
	return job.ID, claim, wires
}

// postResult POSTs body as shard idx's result, gzip-labelled or not, and
// returns the status and the error code of the reply (none on success).
func postResult(t *testing.T, ts *httptest.Server, id string, idx int, body []byte, gz bool) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/jobs/%s/shards/%d/result", ts.URL, id, idx), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiclient.ErrorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&e) // a success carries no error envelope
	return resp.StatusCode, e.Error.Code
}

// resultStep is one warmed operation of the shard-result path: run is
// the operation, between (when set) runs before each one, off the clock
// and off the count, and bytes is the payload a benchmark reports MB/s
// over (0 for none).
type resultStep struct {
	run, between func()
	bytes        int64
}

func (st resultStep) bench(b *testing.B) {
	if st.bytes > 0 {
		b.SetBytes(st.bytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.between != nil {
			b.StopTimer()
			st.between()
			b.StartTimer()
		}
		st.run()
	}
}

// perOp returns the bytes and allocations one run makes, averaged over
// n runs.
func (st resultStep) perOp(n int) (bytes, allocs uint64) {
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		if st.between != nil {
			st.between()
		}
		runtime.ReadMemStats(&before)
		st.run()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
	}
	return bytes / uint64(n), allocs / uint64(n)
}

// uploadFixture is a coordinator with one distributed job whose every
// shard is leased to "w1", plus executed wires for the steady-state
// steps below.
type uploadFixture struct {
	client *apiclient.Client
	job    apiclient.Job
	claim  apiclient.Claim
	wires  []*campaign.ShardResultWire
}

const benchSpec = `{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

func newUploadFixture(tb testing.TB) *uploadFixture {
	tb.Helper()
	srv, err := New(Config{DataDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	fx := &uploadFixture{client: apiclient.New(ts.URL)}
	ctx := context.Background()
	if fx.job, _, err = fx.client.SubmitRaw(ctx, []byte(benchSpec)); err != nil {
		tb.Fatal(err)
	}
	if fx.claim, err = fx.client.Claim(ctx, fx.job.ID, "w1", 1000); err != nil {
		tb.Fatal(err)
	}
	spec, err := campaign.ParseSpec([]byte(benchSpec))
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		tb.Fatal(err)
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		tb.Fatal(err)
	}
	for _, info := range cfg.Shards() {
		w, err := campaign.ExecuteShard(cfg, bp, info.Shard, info.Slice)
		if err != nil {
			tb.Fatal(err)
		}
		w.SpecHash = fx.claim.SpecHash
		fx.wires = append(fx.wires, w)
	}
	return fx
}

// pushStep is one upload in steady state, client and coordinator both:
// encode + gzip, POST over loopback, read, inflate, parse, journal
// (fsync included), ack. Shard 0 is accepted once; every later push of
// it is the idempotent duplicate, which travels the whole path except
// the journal append.
func pushStep(tb testing.TB) resultStep {
	fx := newUploadFixture(tb)
	ctx := context.Background()
	sh := fx.claim.Shards[0]
	push := func() {
		if _, err := fx.client.PushShardResult(ctx, fx.job.ID, sh.Index, "w1", sh.Lease, fx.wires[sh.Index]); err != nil {
			tb.Fatal(err)
		}
	}
	push() // accepted; also warms both free lists
	return resultStep{run: push}
}

func BenchmarkPushShardResult(b *testing.B) { pushStep(b).bench(b) }

// paperSpec plans 13 shards of 6 traces; the steps below fabricate the
// result of one rather than simulating a paper-scale world for it.
const paperSpec = `{"spec": 1, "scale": "paper", "traces": 6, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

// pushPaperStep is pushStep at the size and cadence the
// paper-distributed workload has: one 6 × 2500 result (≈ 2.1 MB of
// JSON) per upload, and a garbage collection between two uploads — a
// worker spends ≈ 400 ms simulating the next shard, which is several GC
// cycles, so anything parked in a sync.Pool (encoding/json's encode
// buffer, for one) is gone by the next upload. The small fixture in a
// tight loop hides exactly that.
func pushPaperStep(tb testing.TB) resultStep {
	srv, err := New(Config{DataDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	client := apiclient.New(ts.URL)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(paperSpec))
	if err != nil {
		tb.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 1)
	if err != nil {
		tb.Fatal(err)
	}
	sh := claim.Shards[0]
	wire := sampleWire(sh.Shard, 2500)
	wire.SpecHash, wire.Slice, wire.Stats.Traces = claim.SpecHash, sh.Slice, sh.Traces
	for len(wire.Traces) < sh.Traces {
		wire.Traces = append(wire.Traces, wire.Traces[0])
	}
	push := func() {
		if _, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wire); err != nil {
			tb.Fatal(err)
		}
	}
	push() // accepted; every later push is the idempotent duplicate
	return resultStep{run: push, between: runtime.GC}
}

func BenchmarkPushShardResultPaper(b *testing.B) { pushPaperStep(b).bench(b) }

// decodeStep is the coordinator's half alone: one gzipped upload body
// accepted through a recycled ingestBuf — inflated a window at a time
// and scanned, its traces checked and counted, not decoded. What is
// left to allocate is the header: strings, the server list, the
// congestion and stats structs.
func decodeStep(tb testing.TB) resultStep {
	fx := newUploadFixture(tb)
	raw, err := json.Marshal(uploadRequest{Worker: "w1", Lease: fx.claim.Shards[0].Lease, Result: fx.wires[0]})
	if err != nil {
		tb.Fatal(err)
	}
	body := gzipBytes(tb, raw)
	var pool ingestPool
	accept := func() {
		buf := pool.get()
		if _, err := buf.acceptUpload(body, maxResultBytes); err != nil {
			tb.Fatalf("accept = %v, want the scan to take it", err)
		}
		pool.put(buf)
	}
	accept()
	return resultStep{run: accept, bytes: int64(len(raw))}
}

func BenchmarkDecodeShardResult(b *testing.B) { decodeStep(b).bench(b) }

// paperUpload is one paper-scale shard result as a worker uploads it —
// six traces of 2500 observations, the servers every shard probes — and
// its gzipped request body.
func paperUpload(tb testing.TB, specHash string, sh campaign.ShardInfo) (*campaign.ShardResultWire, []byte) {
	tb.Helper()
	wire := sampleWire(0, 2500)
	wire.SpecHash, wire.Shard, wire.Slice, wire.Vantage = specHash, sh.Shard, sh.Slice, sh.Vantage
	wire.Stats = campaign.ShardStats{Shard: sh.Shard, Slice: sh.Slice, Vantage: sh.Vantage, Traces: sh.Traces, Events: 4_000_000}
	for i := range wire.Traces[0].Observations {
		o := &wire.Traces[0].Observations[i]
		o.UDPECTReachable, o.TCPReachable, o.TCPECNReachable = i%7 != 0, i%5 != 0, i%3 == 0
	}
	wire.Traces[0].Vantage = sh.Vantage
	for len(wire.Traces) < sh.Traces {
		tr := wire.Traces[0]
		tr.Index, tr.Started = len(wire.Traces), tr.Started+time.Duration(len(wire.Traces))*time.Hour
		wire.Traces = append(wire.Traces, tr)
	}
	raw, err := json.Marshal(uploadRequest{Worker: "w1", Lease: "l", Result: wire})
	if err != nil {
		tb.Fatal(err)
	}
	return wire, gzipBytes(tb, raw)
}

// finalizePaperStep is the merge at paper scale: 13 held 6 × 2500
// uploads filed into the store — the run report merged from their
// headers, the dataset spliced out of their inflated bodies through a
// recycled scan window into the store's hashing writer. What it
// allocates is per chunk and per job (the encoder's chunk, the report's
// server union), not per trace. The first filing files the run; every
// later one writes it again and discards it.
func finalizePaperStep(tb testing.TB) resultStep {
	spec, err := campaign.ParseSpec([]byte(paperSpec))
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		tb.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		tb.Fatal(err)
	}
	store, err := OpenStore(tb.TempDir(), slog.New(slog.DiscardHandler))
	if err != nil {
		tb.Fatal(err)
	}
	m := &jobMgr{store: store, met: newServerMetrics(telemetry.NewRegistry()), now: time.Now}
	j := &job{key: key, spec: spec.Normalized()}
	var scratch ingestBuf
	for _, sh := range cfg.Shards() {
		_, body := paperUpload(tb, key, sh)
		u, err := scratch.acceptUpload(body, maxResultBytes)
		if err != nil {
			tb.Fatalf("accept = %v, want the scan to take it", err)
		}
		u.result.body = body
		j.results = append(j.results, u.result)
		j.tracesTotal += sh.Traces
	}
	file := func() {
		headers := make([]campaign.ShardHeader, len(j.results))
		for i := range j.results {
			headers[i] = j.results[i].ShardHeader
		}
		if _, err := m.fileRun(j, campaign.MergeHeaders(headers), time.Second); err != nil {
			tb.Fatal(err)
		}
	}
	file()
	return resultStep{run: file}
}

func BenchmarkFinalizePaper(b *testing.B) { finalizePaperStep(b).bench(b) }

// TestShardResultPathAllocs holds each step's bytes and allocations per
// operation under a ceiling: the reading when its path last changed +
// 20 %, far below what any one reintroduced copy costs. A per-upload
// gzip.NewWriter is ~900 KB, an io.ReadAll of a body or an
// inflate-by-doubling hundreds of KB to megabytes, encoding/json's
// sync.Pool'd encode buffer regrown after a GC 4 MB per paper-scale
// upload, a decoded upload 0.6 MB of observations, a decoding merge
// 2 MB a shard: each fails here. A change to the path that moves a
// reading edits its ceiling in the same diff.
func TestShardResultPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts; the counts cannot hold")
	}
	for _, c := range []struct {
		name                string
		step                func(testing.TB) resultStep
		runs                int
		maxBytes, maxAllocs uint64 // maxAllocs 0: allocations not held
	}{
		// The small upload read 12.7 KB/op.
		{"PushShardResult", pushStep, 100, 15_300, 0},
		// 79 KB/op and 182 allocs/op: the coordinator scans the body and
		// decodes only its header, where decoding it read 0.78 MB and
		// 2722 allocs.
		{"PushShardResultPaper", pushPaperStep, 20, 94_800, 219},
		// 1491 B/op and 17 allocs/op, all of it the header.
		{"DecodeShardResult", decodeStep, 200, 1_790, 21},
		// 214 KB/op: the encoder's chunk and the report's server union,
		// nothing per trace.
		{"FinalizePaper", finalizePaperStep, 5, 257_300, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			bytes, allocs := c.step(t).perOp(c.runs)
			t.Logf("%d B/op, %d allocs/op", bytes, allocs)
			if bytes > c.maxBytes {
				t.Errorf("%d B/op, want ≤ %d", bytes, c.maxBytes)
			}
			if c.maxAllocs > 0 && allocs > c.maxAllocs {
				t.Errorf("%d allocs/op, want ≤ %d", allocs, c.maxAllocs)
			}
		})
	}
}
