package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

// jsonLine is the reference encoding appendTrace must reproduce: what
// Write emitted while it was json.NewEncoder(w).Encode(&trace).
func jsonLine(t *testing.T, tr *Trace) []byte {
	t.Helper()
	want, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// appendTrace appends the dataset line Write emits for tr — the trace
// through the Encoder, then a newline — to b.
func appendTrace(b []byte, tr *Trace) []byte {
	var line bytes.Buffer
	e := NewEncoder(&line)
	e.Trace(tr)
	e.Raw("\n")
	if err := e.Flush(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return append(b, line.Bytes()...)
}

func checkAgainstJSON(t *testing.T, tr *Trace) {
	t.Helper()
	if got, want := appendTrace(nil, tr), jsonLine(t, tr); !bytes.Equal(got, want) {
		t.Errorf("appendTrace differs from encoding/json\n got %s\nwant %s", got, want)
	}
}

// TestAppendTraceMatchesJSON is the differential test: quick-generated
// traces, then the corners a generator is unlikely to hit.
func TestAppendTraceMatchesJSON(t *testing.T) {
	f := func(vantage string, batch int, index int, started int64, obs []Observation) bool {
		tr := Trace{Vantage: vantage, Batch: batch, Index: index,
			Started: time.Duration(started), Observations: obs}
		return bytes.Equal(appendTrace(nil, &tr), jsonLine(t, &tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	obs := []Observation{
		{}, // every omitempty field zero, every bool false
		{Server: packet.AddrFrom4(255, 255, 255, 255), UDPReachable: true, UDPECTReachable: true,
			UDPAttempts: 6, UDPECTAttempts: 6, TCPReachable: true, TCPECNReachable: true,
			TCPECN: true, HTTPStatus: 302},
		{Server: packet.AddrFrom4(10, 0, 0, 1), UDPAttempts: math.MaxUint8, HTTPStatus: math.MaxUint16},
	}
	for _, vantage := range []string{
		"", "Glasgow (wired)", `quote " backslash \`, "<script>&amp;</script>",
		"tab\tnewline\nnul\x00", "del\x7f", "Zürich", "line\u2028sep\u2029",
		"bad utf8 \xff\xfe", "truncated rune \xe2\x82", "😀",
	} {
		checkAgainstJSON(t, &Trace{Vantage: vantage, Batch: 2, Index: 77,
			Started: 36 * time.Hour, Observations: obs})
	}
	checkAgainstJSON(t, &Trace{Vantage: "nil observations"})
	checkAgainstJSON(t, &Trace{Vantage: "empty observations", Observations: []Observation{}})
	checkAgainstJSON(t, &Trace{Batch: -1, Index: -1, Started: -1})
}

// FuzzAppendTrace drives the same differential from fuzzed scalars: the
// vantage string is the only field whose bytes reach the output
// unvetted, the rest exercise sign, width and omitempty handling.
func FuzzAppendTrace(f *testing.F) {
	f.Add("Glasgow (wired)", 1, 0, int64(0), uint32(0x0a000001), uint8(0xff), uint8(1), uint8(1), uint16(200), uint8(3))
	f.Add("", 0, -1, int64(-1), uint32(0), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0))
	f.Add("a\"b\\c<d>&e", 2, 77, int64(1<<62), uint32(0xffffffff), uint8(0xaa), uint8(6), uint8(255), uint16(302), uint8(1))
	f.Add("bad \xff utf8 \xe2\x82", -2, 1<<31-1, int64(-1<<63), uint32(0x7f000001), uint8(0x55), uint8(255), uint8(7), uint16(65535), uint8(2))
	f.Add("ctl\x00\x1f\x7f \u2028 Zürich", 1, 1, int64(1), uint32(1), uint8(1), uint8(0), uint8(0), uint16(404), uint8(0))
	f.Fuzz(func(t *testing.T, vantage string, batch, index int, started int64,
		server uint32, flags, udpAttempts, udpECTAttempts uint8, status uint16, n uint8) {
		o := Observation{
			Server:          packet.AddrFromUint32(server),
			UDPReachable:    flags&1 != 0,
			UDPECTReachable: flags&2 != 0,
			TCPReachable:    flags&4 != 0,
			TCPECNReachable: flags&8 != 0,
			TCPECN:          flags&16 != 0,
			UDPAttempts:     udpAttempts,
			UDPECTAttempts:  udpECTAttempts,
			HTTPStatus:      status,
		}
		tr := Trace{Vantage: vantage, Batch: batch, Index: index, Started: time.Duration(started)}
		// n%4 == 0 leaves Observations nil; 1 makes it empty, not nil.
		if n%4 > 0 {
			tr.Observations = make([]Observation, n%4-1)
			for i := range tr.Observations {
				tr.Observations[i] = o
				o.Server[3]++
				o.HTTPStatus = 0
			}
		}
		checkAgainstJSON(t, &tr)
	})
}

// TestWriteChunksBounded: Write hands the writer a chunk at a time —
// never a whole paper-scale trace, which is several chunks long — and
// the concatenation is the per-trace reference encoding, wherever the
// chunks were cut.
func TestWriteChunksBounded(t *testing.T) {
	d := benchDataset(3, 2500) // ≈ 330 KB a trace
	var want bytes.Buffer
	for i := range d.Traces {
		want.Write(jsonLine(t, &d.Traces[i]))
	}
	var got bytes.Buffer
	writes := 0
	err := Write(writerFunc(func(p []byte) (int, error) {
		writes++
		if len(p) == 0 || len(p) > encodeChunk+chunkSlack {
			t.Errorf("write %d is %d bytes; want 1..%d", writes, len(p), encodeChunk+chunkSlack)
		}
		return got.Write(p)
	}), d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("Write output differs from the per-trace reference encoding")
	}
	if min := got.Len() / (encodeChunk + chunkSlack); writes < min {
		t.Errorf("dataset of %d bytes went out in %d write(s); want at least %d", got.Len(), writes, min)
	}
}

// TestEncoderErrorSticks: after the writer fails the Encoder appends
// nothing more, keeps its scratch bounded and reports that first error.
func TestEncoderErrorSticks(t *testing.T) {
	boom := errors.New("disk full")
	calls := 0
	e := NewEncoder(writerFunc(func([]byte) (int, error) { calls++; return 0, boom }))
	d := benchDataset(2, 2500)
	for i := range d.Traces {
		e.Trace(&d.Traces[i])
		e.Marshal(map[string]int{"a": 1})
		e.Raw("\n")
	}
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("the failed writer was called %d times, want once", calls)
	}
	if cap(e.buf) > encodeChunk+chunkSlack {
		t.Errorf("scratch grew to %d bytes behind a failed writer", cap(e.buf))
	}
	e.Reset(io.Discard)
	e.Marshal(func() {}) // not marshalable
	e.Raw("x")
	if err := e.Flush(); err == nil {
		t.Error("Flush after a failed Marshal returned nil")
	}
}

func TestWriteReportsWriterError(t *testing.T) {
	boom := errors.New("disk full")
	err := Write(writerFunc(func([]byte) (int, error) { return 0, boom }), sampleDataset())
	if !errors.Is(err, boom) {
		t.Errorf("Write error = %v, want it to wrap %v", err, boom)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// benchDataset builds traces × servers random observations.
func benchDataset(traces, servers int) *Dataset {
	r := rand.New(rand.NewSource(2015))
	d := &Dataset{Traces: make([]Trace, traces)}
	for i := range d.Traces {
		obs := make([]Observation, servers)
		for k := range obs {
			obs[k] = Observation{}.Generate(r, 0).Interface().(Observation)
		}
		d.Traces[i] = Trace{Vantage: "Vantage " + string(rune('A'+i%13)), Batch: 1 + i%2,
			Index: i, Started: time.Duration(i) * time.Hour, Observations: obs}
	}
	return d
}

// BenchmarkDatasetWrite encodes a paper-sized trace set (13 vantages ×
// 2500 servers).
func BenchmarkDatasetWrite(b *testing.B) {
	d := benchDataset(13, 2500)
	var n countWriter
	if err := Write(&n, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(&n, d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDatasetWriteAllocs holds a paper-sized Write at ≤ 4 allocations:
// the hand-written encoder allocates its one chunk (1 alloc when the
// path last changed; the ceiling is that + 3), where reflective
// encoding/json allocated two per observation.
func TestDatasetWriteAllocs(t *testing.T) {
	d := benchDataset(13, 2500)
	var n countWriter
	if allocs := testing.AllocsPerRun(10, func() {
		if err := Write(&n, d); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("a paper-sized Write: %.0f allocs, want ≤ 4", allocs)
	}
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
