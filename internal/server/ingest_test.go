package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apiclient"
	"repro/internal/campaign"
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

// sampleUpload is a small but complete shard-result request body.
func sampleUpload(tb testing.TB) []byte {
	tb.Helper()
	raw, err := json.Marshal(leaseRequest{
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

// wantBadRequest asserts a decode failure is the typed 400 the handler
// relays, not a bare error.
func wantBadRequest(t *testing.T, err error) {
	t.Helper()
	var f *apiFault
	if !errors.As(err, &f) || f.status != http.StatusBadRequest || f.code != codeBadRequest {
		t.Fatalf("decode error = %#v, want a 400 %s fault", err, codeBadRequest)
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
		if b.body.Cap() > freelist.RetainBytes || b.inflated.Cap() > freelist.RetainBytes || b.scan.Cap() > freelist.RetainBytes {
			t.Fatalf("retained buffers of %d/%d/%d bytes, cap is %d",
				b.body.Cap(), b.inflated.Cap(), b.scan.Cap(), freelist.RetainBytes)
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

// FuzzShardResultDecode throws arbitrary bytes, as gzip and as
// identity, at the upload accept path — the scan, and the reflective
// decoder behind it — with a small budget, and holds it to the
// reflective decoder alone: the same accept/reject decision, the same
// header, and the same traces filed, whether the scan kept the body or
// the fallback decoded it. The outcome is a value or a typed 400 —
// never a panic, never more than limit+1 inflated bytes, never an
// over-cap buffer back on the free list — and what was accepted owes
// nothing to the buffers it came through but a scanned result's body,
// which the accept path copies before the handler returns its buffer.
func FuzzShardResultDecode(f *testing.F) {
	const limit = 64 << 10
	valid := sampleUpload(f)
	gz := gzipBytes(f, valid)
	f.Add(gz, true)
	f.Add(valid, false)
	f.Add(valid, true) // JSON labelled gzip
	f.Add(gz, false)   // gzip labelled identity
	f.Add(gz[:len(gz)/2], true)
	f.Add(gzipBytes(f, make([]byte, 1<<20)), true) // bomb: 1 KB that inflates to 1 MiB
	f.Add(append(append([]byte(nil), gz...), "trailing garbage"...), true)
	f.Add([]byte{}, true)
	f.Add([]byte(`{"worker":"w","lease":"l","result":null}`), false)
	// The observation's narrow fields at and past their edges: what a
	// uint8 or uint16 cannot hold, the scan refuses as the decoder does.
	for _, v := range []string{"-1", "0", "255", "256", "65535", "65536"} {
		f.Add(bytes.Replace(valid, []byte(`"udp_attempts":1`), []byte(`"udp_attempts":`+v), 1), false)
		f.Add(bytes.Replace(valid, []byte(`"udp_attempts":1`), []byte(`"udp_attempts":1,"udp_ect_attempts":`+v), 1), false)
		f.Add(gzipBytes(f, bytes.Replace(valid, []byte(`"http":200`), []byte(`"http":`+v), 1)), true)
	}
	congested := sampleWire(5, 3)
	congested.Congestion = &analysis.CEMarkSample{Vantage: "Glasgow (wired)", InECT: 9, InCE: 1, Utilization: 0.85}
	congested.Traces = append(congested.Traces, congested.Traces[0])
	congested.Stats = campaign.ShardStats{Shard: 5, Vantage: "Glasgow (wired)", Traces: 2, Elapsed: 1500 * time.Millisecond}
	for _, req := range []leaseRequest{
		{Worker: "w2", Lease: "j-000002.5.1", Result: congested},
		{Worker: "w<3>", Lease: "l", Result: congested}, // an escaped worker ID: only the fallback reads it
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, false)
		f.Add(bytes.Replace(raw, []byte(`,"stats":`), []byte(`,"congestion":null,"stats":`), 1), false)
		f.Add(bytes.Replace(raw, []byte(`"servers":[`), []byte(`"servers": [`), 1), false)
		f.Add(bytes.Replace(raw, []byte(`"Shard":5`), []byte(`"Shard":5,"Shard":6`), 1), false)
		f.Add(bytes.Replace(raw, []byte(`"traces":[`), []byte(`"traces":[],"traces":[`), 1), false)
	}
	// Canonical bodies of exactly limit and limit+1 bytes: the budget, not
	// the grammar, decides.
	for _, size := range []int{limit, limit + 1} {
		req := leaseRequest{Lease: "l", Result: sampleWire(3, 400)}
		base, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		req.Worker = string(bytes.Repeat([]byte("w"), size-len(base)))
		raw, err := json.Marshal(req)
		if err != nil || len(raw) != size {
			f.Fatalf("sized seed: %d bytes, %v", len(raw), err)
		}
		f.Add(gzipBytes(f, raw), true)
	}

	var pool ingestPool
	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		enc := encIdentity
		if compressed {
			enc = encGzip
		}
		data = bytes.Clone(data) // the engine's copy must not be scribbled on below

		// The oracle: the reflective decoder alone, on its own copy.
		var oracle ingestBuf
		var req leaseRequest
		wantErr := oracle.decodeJSON(bytes.Clone(data), enc, limit, &req)
		if wantErr == nil && req.Result == nil {
			wantErr = faultf(http.StatusBadRequest, codeResultInvalid, "result is required")
		}

		b := pool.get()
		u, err := b.acceptUpload(data, enc, limit)
		if n := b.inflated.Len(); n > limit+1 || b.lim.N < 0 {
			t.Fatalf("inflated %d bytes (%d of the budget left) under a %d-byte limit", n, b.lim.N, limit)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept error %v, reflective decoder error %v", err, wantErr)
		}
		if err != nil {
			var f *apiFault
			if !errors.As(err, &f) || f.status != http.StatusBadRequest {
				t.Fatalf("accept error = %#v, want a typed 400", err)
			}
		} else {
			want := wireResult(req.Result)
			check := func(when string) {
				if u.worker != req.Worker || u.lease != req.Lease || !reflect.DeepEqual(u.result.resultHead, want.resultHead) {
					t.Fatalf("%s: accepted %q %q %+v, reflective decoder read %q %q %+v",
						when, u.worker, u.lease, u.result.resultHead, req.Worker, req.Lease, want.resultHead)
				}
			}
			check("accepted")
			if u.result.wire == nil {
				// Held as the body: the accept path attaches it (a copy).
				u.result.body, u.result.enc = bytes.Clone(data), enc
			}
			if got, ref := mergedLines(t, u.result), mergedLines(t, want); !bytes.Equal(got, ref) {
				t.Fatalf("the held result files\n%s\nthe decoded one\n%s", got, ref)
			}
			// Scribble over everything the accept path read from: the
			// header must not change.
			for _, buf := range [][]byte{data, b.inflated.Bytes(), b.body.Bytes()} {
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
	})
}

// TestIngestBombIsBounded: a body that would inflate far past the limit
// stops at limit+1 bytes and is a 400; the buffer that absorbed it is
// reusable, and a valid upload decodes through it afterwards.
func TestIngestBombIsBounded(t *testing.T) {
	const limit = 1 << 20
	var pool ingestPool
	b := pool.get()
	var req leaseRequest
	err := b.decodeJSON(gzipBytes(t, make([]byte, 16<<20)), encGzip, limit, &req)
	wantBadRequest(t, err)
	if n := b.inflated.Len(); n != limit+1 {
		t.Fatalf("bomb inflated %d bytes, want exactly limit+1 = %d", n, limit+1)
	}
	pool.put(b)

	b = pool.get()
	if err := b.decodeJSON(gzipBytes(t, sampleUpload(t)), encGzip, limit, &req); err != nil {
		t.Fatalf("valid upload after a bomb: %v", err)
	}
	if req.Result == nil || len(req.Result.Traces) != 1 {
		t.Fatalf("valid upload after a bomb decoded to %+v", req)
	}
}

// TestIngestRetentionCap: buffers that grew past the cap are dropped on
// put — a single huge upload does not stay resident — while ordinary
// ones are kept, at most freelist.Slots of them.
func TestIngestRetentionCap(t *testing.T) {
	var pool ingestPool
	big := pool.get()
	var sink struct{}
	// 9 MiB of spaces is valid JSON whitespace around nothing: the decode
	// fails, but only after both buffers have grown past the cap; after
	// a trace's opening, the scan's window reads them all looking for
	// the observations.
	huge := bytes.Repeat([]byte{' '}, freelist.RetainBytes+1<<20)
	big.body.Write(huge)
	_ = big.decodeJSON(gzipBytes(t, huge), encGzip, int64(len(huge)), &sink)
	big.scan.Reset(bytes.NewReader(append([]byte(`{"vantage":"`), huge...)))
	big.scan.Trace()
	if big.inflated.Cap() <= freelist.RetainBytes || big.body.Cap() <= freelist.RetainBytes || big.scan.Cap() <= freelist.RetainBytes {
		t.Fatalf("test setup: buffers are %d/%d/%d bytes, want all above the cap",
			big.body.Cap(), big.inflated.Cap(), big.scan.Cap())
	}
	pool.put(big)
	wantRetainedWithinCap(t, &pool)
	if got := pool.get(); got != big {
		t.Fatal("the shell of an over-cap buffer should still be reused")
	} else if got.body.Cap() != 0 || got.inflated.Cap() != 0 || got.scan.Cap() != 0 {
		t.Fatalf("over-cap buffers survived put: %d/%d/%d bytes", got.body.Cap(), got.inflated.Cap(), got.scan.Cap())
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

// TestInflateHintIsBounded: the gzip trailer sizes the inflate buffer
// once — a truthful one means a single growth, not a doubling ladder —
// and a trailer that lies reserves no more than the body could inflate
// to at all.
func TestInflateHintIsBounded(t *testing.T) {
	raw, err := json.Marshal(leaseRequest{Worker: "w1", Lease: "j-000001/3/1", Result: sampleWire(3, 2500)})
	if err != nil {
		t.Fatal(err)
	}
	var b ingestBuf
	var req leaseRequest
	if err := b.decodeJSON(gzipBytes(t, raw), encGzip, maxResultBytes, &req); err != nil {
		t.Fatal(err)
	}
	// Doubling from bytes.Buffer's first 512 bytes would end at the next
	// power of two and have copied the body twice over on the way.
	if c, want := b.inflated.Cap(), len(raw)+bytes.MinRead; c < want || c > want+want/8 {
		t.Errorf("a truthful trailer left a %d-byte inflate buffer for %d bytes; want one growth to ≈ %d", c, len(raw), want)
	}
	// A larger body through the same buffer replaces it at its own size:
	// Grow would have doubled the first one's capacity.
	larger, err := json.Marshal(leaseRequest{Worker: "w1", Lease: "j-000001/3/1", Result: sampleWire(3, 2700)})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.decodeJSON(gzipBytes(t, larger), encGzip, maxResultBytes, &req); err != nil {
		t.Fatal(err)
	}
	if c, want := b.inflated.Cap(), len(larger)+bytes.MinRead; c < want || c > want+want/8 {
		t.Errorf("a %d-byte body after a %d-byte one left a %d-byte inflate buffer; want ≈ %d", len(larger), len(raw), c, want)
	}

	// ≈ 1 KB of incompressible body whose trailer claims 256 MiB.
	noise := make([]byte, 900)
	for i := range noise {
		noise[i] = byte(i * 167 >> 3)
	}
	body := gzipBytes(t, noise)
	binary.LittleEndian.PutUint32(body[len(body)-4:], 256<<20)
	var liar ingestBuf
	wantBadRequest(t, liar.decodeJSON(body, encGzip, maxResultBytes, &req))
	if c, max := liar.inflated.Cap(), maxDeflateRatio*len(body)+bytes.MinRead; c > max+max/8 {
		t.Errorf("a %d-byte body claiming 256 MiB reserved %d bytes; the bound is %d", len(body), c, max)
	}
	// And the byte budget caps both.
	var tight ingestBuf
	wantBadRequest(t, tight.decodeJSON(body, encGzip, 100, &req))
	if c := tight.inflated.Cap(); c > 101+2*bytes.MinRead {
		t.Errorf("a 100-byte budget reserved %d bytes", c)
	}
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
		raw, err := json.Marshal(leaseRequest{Worker: "w1", Lease: sh.Lease, Result: wire})
		if err != nil {
			t.Fatal(err)
		}
		compressed += len(gzipBytes(t, raw))
		if ack, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wire); err != nil || ack.Status != "accepted" {
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

// TestFallbackUploadFilesThePinnedHash: uploads in a form no worker
// writes — pretty-printed by some other client — are accepted through
// the reflective decoder and held decoded, beside scanned ones held as
// their bodies, and the job files the pinned bytes.
func TestFallbackUploadFilesThePinnedHash(t *testing.T) {
	srv, ts := newPoolServer(t, Config{}, 0)
	client := apiclient.New(ts.URL)
	id, claim, wires := claimPinned(t, client)
	for k, sh := range claim.Shards {
		want := "body"
		if k%2 == 0 {
			want = "decoded"
			pretty, err := json.MarshalIndent(leaseRequest{Worker: "w1", Lease: sh.Lease, Result: wires[k]}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if status, _ := postResult(t, ts, id, sh.Index, pretty, false); status != http.StatusOK {
				t.Fatalf("pretty-printed upload %d = %d", k, status)
			}
		} else if _, err := client.PushShardResult(context.Background(), id, sh.Index, "w1", sh.Lease, wires[k]); err != nil {
			t.Fatal(err)
		}
		if k < len(claim.Shards)-1 {
			if got := heldKind(srv, id, sh.Index); got != want {
				t.Fatalf("upload %d is held %s, want %s", k, got, want)
			}
		}
	}
	if got := jobReport(t, ts, id).DatasetSHA256; got != pinnedHash {
		t.Fatalf("filed %s, want cmd/determinism's pinned hash", got)
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
	good, err := json.Marshal(leaseRequest{Worker: "w1", Lease: sh.Lease, Result: wires[0]})
	if err != nil {
		t.Fatal(err)
	}
	wide := bytes.Replace(good, []byte(`"udp_attempts":1,`), []byte(`"udp_attempts":256,`), 1)
	if bytes.Equal(wide, good) {
		t.Fatal("test setup: the shard's upload has no udp_attempts of 1")
	}
	malformedStatus, malformedCode := postResult(t, ts, id, sh.Index, good[:len(good)/2], false)
	if malformedStatus != http.StatusBadRequest || malformedCode != codeBadRequest {
		t.Fatalf("a malformed upload = %d %s, want 400 %s", malformedStatus, malformedCode, codeBadRequest)
	}
	for _, gz := range []bool{false, true} {
		body := wide
		if gz {
			body = gzipBytes(t, wide)
		}
		if status, code := postResult(t, ts, id, sh.Index, body, gz); status != malformedStatus || code != malformedCode {
			t.Fatalf("an upload with udp_attempts 256 (gzip %v) = %d %s; a malformed one = %d %s",
				gz, status, code, malformedStatus, malformedCode)
		}
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
		if ack, err := client.PushShardResult(context.Background(), id, sh.Index, "w1", sh.Lease, wires[k]); err != nil || ack.Status != "accepted" {
			t.Fatalf("upload %d = %+v, %v", k, ack, err)
		}
	}
	if got := jobReport(t, ts, id).DatasetSHA256; got != pinnedHash {
		t.Fatalf("filed %s, want cmd/determinism's pinned hash", got)
	}
}

// pinnedHash is what cmd/determinism's small uncongested campaign files.
const pinnedHash = "81e2952878d5e0990abb0094d3f50769437b0837021e33a770418fe8fdbe0fa8"

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
	var e ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&e) // a success carries no error envelope
	return resp.StatusCode, e.Error.Code
}

// uploadFixture is a coordinator with one distributed job whose every
// shard is leased to "w1", plus executed wires for the steady-state
// benchmarks below.
type uploadFixture struct {
	client *apiclient.Client
	job    apiclient.Job
	claim  apiclient.Claim
	wires  []*campaign.ShardResultWire
}

const benchSpec = `{"spec": 1, "scale": "small", "traces": 1, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

func newUploadFixture(b *testing.B) *uploadFixture {
	b.Helper()
	srv, err := New(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	fx := &uploadFixture{client: apiclient.New(ts.URL)}
	ctx := context.Background()
	if fx.job, _, err = fx.client.SubmitRaw(ctx, []byte(benchSpec)); err != nil {
		b.Fatal(err)
	}
	if fx.claim, err = fx.client.Claim(ctx, fx.job.ID, "w1", 1000); err != nil {
		b.Fatal(err)
	}
	spec, err := campaign.ParseSpec([]byte(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		b.Fatal(err)
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		b.Fatal(err)
	}
	for _, info := range cfg.Shards() {
		w, err := campaign.ExecuteShard(cfg, bp, info.Shard, info.Slice)
		if err != nil {
			b.Fatal(err)
		}
		w.SpecHash = fx.claim.SpecHash
		fx.wires = append(fx.wires, w)
	}
	return fx
}

// BenchmarkPushShardResult is one upload in steady state, client and
// coordinator both: encode + gzip, POST over loopback, read, inflate,
// parse, journal (fsync included), ack. Shard 0 is accepted once; every
// later push of it is the idempotent duplicate, which travels the whole
// path except the journal append. scripts/perf_gate.sh holds B/op under
// a ceiling — a per-upload gzip.NewWriter or io.ReadAll shows up here as
// hundreds of KB.
func BenchmarkPushShardResult(b *testing.B) {
	fx := newUploadFixture(b)
	ctx := context.Background()
	sh := fx.claim.Shards[0]
	push := func() {
		if _, err := fx.client.PushShardResult(ctx, fx.job.ID, sh.Index, "w1", sh.Lease, fx.wires[sh.Index]); err != nil {
			b.Fatal(err)
		}
	}
	push() // accepted; also warms both free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
}

// paperSpec plans 13 shards of 6 traces; the benchmark below fabricates
// the result of one rather than simulating a paper-scale world for it.
const paperSpec = `{"spec": 1, "scale": "paper", "traces": 6, "seed": 2015, "stride": 0,
  "execution": "distributed"}`

// BenchmarkPushShardResultPaper is BenchmarkPushShardResult at the size
// and cadence the paper-distributed workload has: one 6 × 2500 result
// (≈ 2.1 MB of JSON) per upload, and a garbage collection between two
// uploads — a worker spends ≈ 400 ms simulating the next shard, which is
// several GC cycles, so anything parked in a sync.Pool (encoding/json's
// encode buffer, for one) is gone by the next upload. The small fixture
// in a tight loop hides exactly that. scripts/perf_gate.sh holds B/op
// and allocs/op under ceilings.
func BenchmarkPushShardResultPaper(b *testing.B) {
	srv, err := New(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	client := apiclient.New(ts.URL)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(paperSpec))
	if err != nil {
		b.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w1", 1)
	if err != nil {
		b.Fatal(err)
	}
	sh := claim.Shards[0]
	wire := sampleWire(sh.Shard, 2500)
	wire.SpecHash, wire.Slice, wire.Stats.Traces = claim.SpecHash, sh.Slice, sh.Traces
	for len(wire.Traces) < sh.Traces {
		wire.Traces = append(wire.Traces, wire.Traces[0])
	}
	push := func() {
		if _, err := client.PushShardResult(ctx, job.ID, sh.Index, "w1", sh.Lease, wire); err != nil {
			b.Fatal(err)
		}
	}
	push() // accepted; every later push is the idempotent duplicate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		push()
	}
}

// BenchmarkDecodeShardResult is the coordinator's half alone: one
// gzipped upload body accepted through a recycled ingestBuf — inflated
// a window at a time and scanned, its traces checked and counted, not
// decoded. What is left to allocate is the header: strings, the server
// list, the congestion and stats structs.
func BenchmarkDecodeShardResult(b *testing.B) {
	fx := newUploadFixture(b)
	raw, err := json.Marshal(leaseRequest{Worker: "w1", Lease: fx.claim.Shards[0].Lease, Result: fx.wires[0]})
	if err != nil {
		b.Fatal(err)
	}
	body := gzipBytes(b, raw)
	var pool ingestPool
	accept := func() {
		buf := pool.get()
		if u, err := buf.acceptUpload(body, encGzip, maxResultBytes); err != nil || u.result.wire != nil {
			b.Fatalf("accept = %v (decoded: %v), want the scan to take it", err, u.result.wire != nil)
		}
		pool.put(buf)
	}
	accept()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accept()
	}
}

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
	raw, err := json.Marshal(leaseRequest{Worker: "w1", Lease: "l", Result: wire})
	if err != nil {
		tb.Fatal(err)
	}
	return wire, gzipBytes(tb, raw)
}

// BenchmarkFinalizePaper is the merge at paper scale: 13 held 6 × 2500
// uploads filed into the store — the run report merged from their
// headers, the dataset spliced out of their inflated bodies through a
// recycled scan window into the store's hashing writer. What it
// allocates is per chunk and per job (the encoder's chunk, the report's
// server union), not per trace: scripts/perf_gate.sh holds its B/op
// under a ceiling.
func BenchmarkFinalizePaper(b *testing.B) {
	spec, err := campaign.ParseSpec([]byte(paperSpec))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		b.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		b.Fatal(err)
	}
	store, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m := &jobMgr{store: store, met: newServerMetrics(telemetry.NewRegistry()), now: time.Now}
	j := &job{key: key, spec: spec.Normalized()}
	var scratch ingestBuf
	for _, sh := range cfg.Shards() {
		_, body := paperUpload(b, key, sh)
		u, err := scratch.acceptUpload(body, encGzip, maxResultBytes)
		if err != nil || u.result.wire != nil {
			b.Fatalf("accept = %v, want the scan to take it", err)
		}
		u.result.body, u.result.enc = body, encGzip
		j.results = append(j.results, u.result)
		j.tracesTotal += sh.Traces
	}
	file := func() {
		headers := make([]campaign.ShardHeader, len(j.results))
		for i := range j.results {
			headers[i] = j.results[i].ShardHeader
		}
		if _, err := m.fileRun(j, campaign.MergeHeaders(headers), time.Second); err != nil {
			b.Fatal(err)
		}
	}
	file() // files the run; every later Put writes it again and discards it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file()
	}
}
