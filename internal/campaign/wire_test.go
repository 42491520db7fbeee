package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/packet"
)

// stripWallClock zeroes the one non-deterministic ShardStats field
// (wall-clock Elapsed) so shard stats can be compared across runs.
func stripWallClock(stats []ShardStats) []ShardStats {
	out := make([]ShardStats, len(stats))
	copy(out, stats)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// executeAllShardsOverWire runs every planned shard through the remote
// worker path — ExecuteShard, then a full JSON round trip of the wire
// struct (what an HTTP upload does to it) — and merges the decoded
// results, exactly as a coordinator assembling worker uploads would.
func executeAllShardsOverWire(t *testing.T, cfg Config) *Result {
	t.Helper()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	var wires []*ShardResultWire
	for _, info := range cfg.Shards() {
		w, err := ExecuteShard(cfg, bp, info.Shard, info.Slice)
		if err != nil {
			t.Fatalf("ExecuteShard(%d,%d): %v", info.Shard, info.Slice, err)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if streamed := encodeWire(t, w); !bytes.Equal(streamed, raw) {
			t.Fatalf("shard (%d,%d): EncodeJSON differs from json.Marshal", info.Shard, info.Slice)
		}
		decoded := new(ShardResultWire)
		if err := json.Unmarshal(raw, decoded); err != nil {
			t.Fatal(err)
		}
		wires = append(wires, decoded)
	}
	res, err := MergeWire(wires)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWireMergeMatchesInProcess is the distributed path's determinism
// guarantee: executing every shard through ExecuteShard, JSON
// round-tripping each result, and merging with MergeWire yields the
// same dataset bytes, server list, congestion samples and shard stats
// as the in-process campaign.Run — for both uncongested and congested
// scenarios, with sliced vantages.
func TestWireMergeMatchesInProcess(t *testing.T) {
	for _, scenario := range []string{ScenarioUncongested, ScenarioCongestedEdge} {
		t.Run(scenario, func(t *testing.T) {
			cfg := testConfig()
			cfg.Scenario = scenario
			cfg.SlicesPerVantage = 2

			ref := runOrFatal(t, cfg)
			got := executeAllShardsOverWire(t, cfg)

			refData, gotData := encode(t, ref.Dataset), encode(t, got.Dataset)
			if len(refData) == 0 {
				t.Fatal("reference dataset is empty")
			}
			if !bytes.Equal(gotData, refData) {
				t.Errorf("wire-merged dataset differs from in-process run (%d vs %d bytes)",
					len(gotData), len(refData))
			}
			if !reflect.DeepEqual(got.Servers, ref.Servers) {
				t.Errorf("servers differ: %v vs %v", got.Servers, ref.Servers)
			}
			if !reflect.DeepEqual(stripWallClock(got.Shards), stripWallClock(ref.Shards)) {
				t.Errorf("shard stats differ:\n%+v\nvs\n%+v", got.Shards, ref.Shards)
			}
			if !reflect.DeepEqual(got.Congestion, ref.Congestion) {
				t.Errorf("congestion samples differ:\n%+v\nvs\n%+v", got.Congestion, ref.Congestion)
			}
			if got.Events != ref.Events || got.PhantomEvents != ref.PhantomEvents ||
				got.ReplayedBoundaries != ref.ReplayedBoundaries {
				t.Errorf("event totals differ: (%d,%d,%d) vs (%d,%d,%d)",
					got.Events, got.PhantomEvents, got.ReplayedBoundaries,
					ref.Events, ref.PhantomEvents, ref.ReplayedBoundaries)
			}
		})
	}
}

// TestExecuteShardUnknownShard rejects coordinates outside the plan.
func TestExecuteShardUnknownShard(t *testing.T) {
	cfg := testConfig()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteShard(cfg, bp, 99, 0); err == nil {
		t.Fatal("want error for shard outside the plan")
	}
}

// TestMergeWireRejectsBadBatches covers the coordinator-side guards:
// empty batches, nil entries, wrong wire versions and out-of-order
// uploads are all refused before any merge happens.
func TestMergeWireRejectsBadBatches(t *testing.T) {
	cfg := testConfig()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	infos := cfg.Shards()
	if len(infos) < 2 {
		t.Fatalf("test plan too small: %d shards", len(infos))
	}
	a, err := ExecuteShard(cfg, bp, infos[0].Shard, infos[0].Slice)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteShard(cfg, bp, infos[1].Shard, infos[1].Slice)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MergeWire(nil); err == nil {
		t.Error("want error for empty batch")
	}
	if _, err := MergeWire([]*ShardResultWire{a, nil}); err == nil {
		t.Error("want error for nil entry")
	}
	bad := *a
	bad.Version = ShardWireVersion + 1
	if _, err := MergeWire([]*ShardResultWire{&bad}); err == nil {
		t.Error("want error for wire version mismatch")
	}
	if _, err := MergeWire([]*ShardResultWire{b, a}); err == nil {
		t.Error("want error for out-of-order results")
	}
	if _, err := MergeWire([]*ShardResultWire{a, a}); err == nil {
		t.Error("want error for duplicate shard coordinates")
	}
}

// encodeWire is w through the streaming encoder.
func encodeWire(t testing.TB, w *ShardResultWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := dataset.NewEncoder(&buf)
	w.EncodeJSON(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireStrings are what the string fields are drawn from: the plain
// case, everything encoding/json escapes or replaces, and non-ASCII.
var wireStrings = []string{
	"", "Glasgow (wired)", `quote " backslash \`, "<script>&amp;</script>", "tab\tnul\x00del\x7f",
	"Zürich", "line\u2028sep", "bad utf8 \xff\xfe", "😀",
}

// randomWire builds a wire whose every optional part is, at random,
// nil, empty or filled.
func randomWire(r *rand.Rand) *ShardResultWire {
	pick := func() string { return wireStrings[r.Intn(len(wireStrings))] }
	w := &ShardResultWire{
		Version: r.Intn(3), SpecHash: pick(), Shard: r.Intn(13), Slice: r.Intn(8) - 1, Vantage: pick(),
		Stats: ShardStats{Shard: r.Intn(13), Vantage: pick(), Seed: r.Int63() - 1<<62, Traces: r.Intn(7),
			Events: r.Uint64(), VirtualTime: time.Duration(r.Int63()), Elapsed: time.Duration(r.Int63n(1e10))},
	}
	switch r.Intn(3) {
	case 1:
		w.Traces = []dataset.Trace{}
	case 2:
		w.Traces = make([]dataset.Trace, 1+r.Intn(3))
		for i := range w.Traces {
			tr := &w.Traces[i]
			tr.Vantage, tr.Batch, tr.Index, tr.Started = pick(), r.Intn(3), r.Intn(100)-1, time.Duration(r.Int63())
			switch r.Intn(3) {
			case 1:
				tr.Observations = []dataset.Observation{}
			case 2:
				tr.Observations = make([]dataset.Observation, 1+r.Intn(40))
				for k := range tr.Observations {
					tr.Observations[k] = dataset.Observation{
						Server:       packet.AddrFromUint32(r.Uint32()),
						UDPReachable: r.Intn(2) == 0, UDPECTReachable: r.Intn(2) == 0,
						UDPAttempts: uint8(r.Intn(7)), UDPECTAttempts: uint8(r.Intn(7) - 1), // -1 wraps to 255
						TCPReachable: r.Intn(2) == 0, TCPECNReachable: r.Intn(2) == 0, TCPECN: r.Intn(2) == 0,
						HTTPStatus: []uint16{0, 200, 302, math.MaxUint16}[r.Intn(4)],
					}
				}
			}
		}
	}
	switch r.Intn(3) {
	case 1:
		w.Servers = []packet.Addr{}
	case 2:
		w.Servers = make([]packet.Addr, 1+r.Intn(40))
		for i := range w.Servers {
			w.Servers[i] = packet.AddrFromUint32(r.Uint32())
		}
	}
	if r.Intn(2) == 0 {
		w.Congestion = &analysis.CEMarkSample{Vantage: pick(), InECT: r.Uint64(), InCE: uint64(r.Intn(100)),
			QueueOffered: r.Uint64(), Utilization: r.Float64()}
	}
	return w
}

// TestWireEncodeMatchesMarshal: the streamed encoding of a wire is
// json.Marshal's, byte for byte — nil, empty and filled Traces and
// Servers, Congestion absent and present, strings that need escaping —
// and a nil wire is null.
func TestWireEncodeMatchesMarshal(t *testing.T) {
	f := func(seed int64) bool {
		return wireEncodeMatches(t, randomWire(rand.New(rand.NewSource(seed))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if got := encodeWire(t, nil); string(got) != "null" {
		t.Errorf("a nil wire encodes as %q, want null", got)
	}
	// What encoding/json refuses, the encoder refuses: the error comes
	// out of Flush.
	w := randomWire(rand.New(rand.NewSource(1)))
	w.Congestion = &analysis.CEMarkSample{Utilization: math.Inf(1)}
	e := dataset.NewEncoder(new(bytes.Buffer))
	w.EncodeJSON(e)
	if _, merr := json.Marshal(w); merr == nil || e.Flush() == nil {
		t.Errorf("an unmarshalable wire: json.Marshal says %v, Flush says nil or disagrees", merr)
	}
}

// wireEncodeMatches reports whether w streams to json.Marshal's bytes.
func wireEncodeMatches(t *testing.T, w *ShardResultWire) bool {
	t.Helper()
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	got := encodeWire(t, w)
	if !bytes.Equal(got, want) {
		t.Logf("EncodeJSON\n got %s\nwant %s", got, want)
	}
	return bytes.Equal(got, want)
}

// FuzzWireEncode drives the same differential with fuzzed strings in
// every string field, over wire shapes drawn from the shape seed.
func FuzzWireEncode(f *testing.F) {
	f.Add("0123456789abcdef", "Glasgow (wired)", "EC2 Tokyo", int64(1))
	f.Add("", "q\"<>&\\", "bad \xff utf8 \xe2\x82", int64(2))
	f.Add("Zürich\u2028", "ctl\t\x00\x7f", "😀", int64(3))
	f.Fuzz(func(t *testing.T, specHash, vantage, traceVantage string, shape int64) {
		w := randomWire(rand.New(rand.NewSource(shape)))
		w.SpecHash, w.Vantage, w.Stats.Vantage = specHash, vantage, vantage
		for i := range w.Traces {
			w.Traces[i].Vantage = traceVantage
		}
		if w.Congestion != nil {
			w.Congestion.Vantage = vantage
		}
		if !wireEncodeMatches(t, w) {
			t.Fail()
		}
	})
}

// TestEncodeScratchBounded: a paper-scale result (6 traces × 2500
// observations, ≈ 2.1 MB of JSON) leaves the encoder in writes of at
// most two chunks — every buffered byte is handed over in one Write, so
// that bounds the scratch — and the pieces add up to json.Marshal's
// bytes.
func TestEncodeScratchBounded(t *testing.T) {
	const chunk = 64 << 10
	r := rand.New(rand.NewSource(2015))
	w := &ShardResultWire{Version: ShardWireVersion, Vantage: "Glasgow (wired)", Traces: make([]dataset.Trace, 6)}
	for i := range w.Traces {
		obs := make([]dataset.Observation, 2500)
		for k := range obs {
			obs[k] = dataset.Observation{Server: packet.AddrFromUint32(r.Uint32()), UDPReachable: true,
				UDPECTReachable: true, UDPAttempts: uint8(1 + r.Intn(6)), UDPECTAttempts: 1, TCPReachable: true, HTTPStatus: 302}
		}
		w.Traces[i] = dataset.Trace{Vantage: w.Vantage, Batch: 1, Index: i, Started: time.Duration(i) * time.Hour, Observations: obs}
	}
	w.Servers = make([]packet.Addr, 2500)
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writes, largest := 0, 0
	e := dataset.NewEncoder(writerFunc(func(p []byte) (int, error) {
		writes++
		largest = max(largest, len(p))
		return got.Write(p)
	}))
	for range 2 { // the second pass runs on the recycled scratch
		got.Reset()
		w.EncodeJSON(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("the chunks do not add up to json.Marshal's bytes")
		}
	}
	if largest > 2*chunk || writes < 2*(len(want)/(2*chunk)) {
		t.Errorf("%d bytes ×2 left in %d writes, the largest %d bytes; want every write within %d",
			len(want), writes, largest, 2*chunk)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
