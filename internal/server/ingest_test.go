package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/packet"
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) > ingestSlots {
		t.Fatalf("free list holds %d buffers, cap is %d", len(p.free), ingestSlots)
	}
	for _, b := range p.free {
		if b.body.Cap() > ingestRetainBytes || b.inflated.Cap() > ingestRetainBytes {
			t.Fatalf("retained buffers of %d/%d bytes, cap is %d",
				b.body.Cap(), b.inflated.Cap(), ingestRetainBytes)
		}
	}
}

// FuzzShardResultDecode throws arbitrary bytes, as gzip and as
// identity, at the upload decoder with a small budget: the outcome is a
// value or a typed 400 — never a panic, never more than limit+1
// inflated bytes, never an over-cap buffer back on the free list — and
// a decoded value owes nothing to the buffers it came through.
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

	var pool ingestPool
	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		enc := encIdentity
		if compressed {
			enc = encGzip
		}
		data = bytes.Clone(data) // the engine's copy must not be scribbled on below
		b := pool.get()
		var req leaseRequest
		err := b.decodeJSON(data, enc, limit, &req)
		if n := b.inflated.Len(); n > limit+1 {
			t.Fatalf("inflated %d bytes under a %d-byte limit", n, limit)
		}
		if err != nil {
			wantBadRequest(t, err)
		} else {
			before, merr := json.Marshal(&req)
			if merr != nil {
				t.Fatal(merr)
			}
			// Scribble over everything the decoder read from: the value
			// must not change.
			for _, buf := range [][]byte{data, b.inflated.Bytes()} {
				for i := range buf {
					buf[i] = 0xff
				}
			}
			if after, _ := json.Marshal(&req); !bytes.Equal(before, after) {
				t.Fatal("decoded request aliases the buffer it was decoded from")
			}
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
// ones are kept, at most ingestSlots of them.
func TestIngestRetentionCap(t *testing.T) {
	var pool ingestPool
	big := pool.get()
	var sink struct{}
	// 9 MiB of spaces is valid JSON whitespace around nothing: the decode
	// fails, but only after both buffers have grown past the cap.
	huge := bytes.Repeat([]byte{' '}, ingestRetainBytes+1<<20)
	big.body.Write(huge)
	_ = big.decodeJSON(gzipBytes(t, huge), encGzip, int64(len(huge)), &sink)
	if big.inflated.Cap() <= ingestRetainBytes || big.body.Cap() <= ingestRetainBytes {
		t.Fatalf("test setup: buffers are %d/%d bytes, want both above the cap",
			big.body.Cap(), big.inflated.Cap())
	}
	pool.put(big)
	wantRetainedWithinCap(t, &pool)
	if got := pool.get(); got != big {
		t.Fatal("the shell of an over-cap buffer should still be reused")
	} else if got.body.Cap() != 0 || got.inflated.Cap() != 0 {
		t.Fatalf("over-cap buffers survived put: %d/%d bytes", got.body.Cap(), got.inflated.Cap())
	}

	bufs := make([]*ingestBuf, ingestSlots+3)
	for i := range bufs {
		bufs[i] = pool.get()
		bufs[i].body.Grow(4 << 10)
	}
	for _, b := range bufs {
		pool.put(b)
	}
	wantRetainedWithinCap(t, &pool)
	if len(pool.free) != ingestSlots {
		t.Fatalf("free list holds %d buffers after %d puts, want %d", len(pool.free), len(bufs), ingestSlots)
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
// gzipped upload body inflated and parsed through a recycled ingestBuf.
// What is left to allocate is the decoded wire itself.
func BenchmarkDecodeShardResult(b *testing.B) {
	fx := newUploadFixture(b)
	raw, err := json.Marshal(leaseRequest{Worker: "w1", Lease: fx.claim.Shards[0].Lease, Result: fx.wires[0]})
	if err != nil {
		b.Fatal(err)
	}
	body := gzipBytes(b, raw)
	var pool ingestPool
	decode := func() {
		buf := pool.get()
		var req leaseRequest
		if err := buf.decodeJSON(body, encGzip, maxResultBytes, &req); err != nil {
			b.Fatal(err)
		}
		pool.put(buf)
	}
	decode()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
