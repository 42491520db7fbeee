package dataset

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/packet"
)

// FuzzTraceScan holds the count-only grammar to the decoding one and the
// splice to the encoder: for any bytes, scanTrace accepts exactly when
// parseCanonical does, Scanner.Trace frames and accepts by the same
// rule however the stream is cut into reads, and an accepted trace
// spliced at index k is byte for byte Encoder.Trace of its decode with
// Index = k. Its seed corpus is the decoder's.
func FuzzTraceScan(f *testing.F) {
	for i, seed := range decodeSeeds() {
		f.Add(seed, i-3)
	}
	f.Add(traceValue(&benchDataset(1, 40).Traces[0]), math.MinInt)
	f.Fuzz(func(t *testing.T, data []byte, index int) {
		var decoded Trace
		ok := scanTrace(data)
		if ok != decoded.parseCanonical(data) {
			t.Fatalf("scanTrace = %v, parseCanonical = %v\ninput %q", ok, !ok, data)
		}

		var s Scanner
		s.Reset(iotest.OneByteReader(bytes.NewReader(data)))
		framed, took := s.Trace()
		if ok && (!took || !bytes.Equal(framed, data)) {
			t.Fatalf("Scanner.Trace = %q, %v on a canonical trace\ninput %q", framed, took, data)
		}
		if took && (!bytes.HasPrefix(data, framed) || !scanTrace(framed) || s.Offset() != int64(len(framed))) {
			t.Fatalf("Scanner.Trace took %q (offset %d), not a canonical prefix\ninput %q", framed, s.Offset(), data)
		}
		if !ok {
			return
		}

		var spliced bytes.Buffer
		e := NewEncoder(&spliced)
		e.Splice(data, index)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		decoded.Index = index
		if want := traceValue(&decoded); !bytes.Equal(spliced.Bytes(), want) {
			t.Fatalf("spliced at %d:\n got %s\nwant %s", index, spliced.Bytes(), want)
		}
	})
}

// TestSpliceWritesThrough: splicing paper-scale traces — several chunks
// each — reproduces Encoder.Trace at every new index, and allocates
// nothing: the trace goes to the writer from the caller's bytes.
func TestSpliceWritesThrough(t *testing.T) {
	d := benchDataset(3, 2500)
	var want bytes.Buffer
	for i := range d.Traces {
		tr := d.Traces[i]
		tr.Index = 1000 + i
		want.Write(jsonLine(t, &tr))
	}
	traces := make([][]byte, len(d.Traces))
	for i := range d.Traces {
		traces[i] = traceValue(&d.Traces[i])
	}
	var got bytes.Buffer
	e := NewEncoder(&got)
	splice := func() {
		for i, tr := range traces {
			e.Splice(tr, 1000+i)
			e.Raw("\n")
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	splice()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("spliced traces differ from Encoder.Trace at the new indices")
	}
	got.Grow(2 * want.Len())
	if allocs := testing.AllocsPerRun(5, func() { got.Reset(); e.Reset(&got); splice() }); allocs > 0 {
		t.Errorf("splicing %d paper-scale traces took %.0f allocations, want 0", len(traces), allocs)
	}

	e.Reset(io.Discard)
	e.Splice([]byte(`{"vantage":"v","batch":1}`), 0)
	if err := e.Flush(); err == nil {
		t.Error("splicing bytes with no index key succeeded")
	}
}

// TestScannerReadsWhatEncoderWrites: an envelope the Encoder writes —
// scalars, a trace array, an address list — scans back field by field
// through a reader that returns a byte at a time and one that returns
// half of what is asked, and once the window has grown to the largest
// trace, scanning the same stream again allocates only the address list.
func TestScannerReadsWhatEncoderWrites(t *testing.T) {
	d := benchDataset(3, 2500)
	addrs := []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(192, 168, 255, 0)}
	var stream bytes.Buffer
	e := NewEncoder(&stream)
	e.Raw(`{"n":`)
	e.Int(-42)
	e.Raw(`,"s":`)
	e.String("Glasgow (wired)")
	e.Raw(`,"traces":[`)
	for i := range d.Traces {
		if i > 0 {
			e.Raw(",")
		}
		e.Trace(&d.Traces[i])
	}
	e.Raw(`],"servers":[`)
	for i, a := range addrs {
		if i > 0 {
			e.Raw(",")
		}
		e.Addr(a)
	}
	e.Raw(`],"tail":{"x":1}}`)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	want := make([][]byte, len(d.Traces))
	for i := range d.Traces {
		want[i] = traceValue(&d.Traces[i])
	}
	var s Scanner
	scan := func(r io.Reader) (tracesAt int64) {
		s.Reset(r)
		if !s.Lit(`{"n":`) {
			t.Fatal("Lit")
		}
		if n, ok := s.Int(); !ok || n != -42 || !s.Lit(`,"s":`) {
			t.Fatalf("Int = %d, %v", n, ok)
		}
		if str, ok := s.Str(); !ok || string(str) != "Glasgow (wired)" || !s.Lit(`,"traces":[`) {
			t.Fatalf("Str = %q, %v", str, ok)
		}
		tracesAt = s.Offset()
		for i := range d.Traces {
			if i > 0 && !s.Lit(",") {
				t.Fatal("no comma between traces")
			}
			tr, ok := s.Trace()
			if !ok || !bytes.Equal(tr, want[i]) {
				t.Fatalf("trace %d: %v", i, ok)
			}
		}
		if !s.Lit(`],"servers":`) {
			t.Fatal("no servers key")
		}
		if got, ok := s.Addrs(); !ok || !slices.Equal(got, addrs) || cap(got) != len(addrs) {
			t.Fatalf("Addrs = %v (cap %d), %v", got, cap(got), ok)
		}
		if rest, ok := s.Rest(); !ok || string(rest) != `,"tail":{"x":1}}` {
			t.Fatalf("Rest = %q, %v", rest, ok)
		}
		if s.Offset() != int64(stream.Len()) {
			t.Fatalf("Offset = %d at the end of a %d-byte stream", s.Offset(), stream.Len())
		}
		return tracesAt
	}
	tracesAt := scan(iotest.OneByteReader(bytes.NewReader(stream.Bytes())))
	scan(iotest.HalfReader(bytes.NewReader(stream.Bytes())))
	if c, trace := s.Cap(), len(want[0]); c < trace || c > 4*trace {
		t.Errorf("window of %d bytes after %d-byte traces", c, trace)
	}

	// Discard skips to the traces as an offset recorded on a first pass.
	s.Reset(bytes.NewReader(stream.Bytes()))
	if !s.Discard(tracesAt) {
		t.Fatal("Discard")
	}
	if tr, ok := s.Trace(); !ok || !bytes.Equal(tr, want[0]) {
		t.Fatal("no trace at the recorded offset")
	}

	r := bytes.NewReader(nil)
	if allocs := testing.AllocsPerRun(5, func() { r.Reset(stream.Bytes()); scan(r) }); allocs > 1 {
		t.Errorf("scanning the stream again took %.0f allocations, want 1 (the address list)", allocs)
	}
}

// TestScannerRefusesWhatEncoderDoesNotWrite: the envelope scalars are
// as strict as the trace grammar, and a read error is not an end.
func TestScannerRefusesWhatEncoderDoesNotWrite(t *testing.T) {
	var s Scanner
	for _, in := range []string{"01", "-0", "", "99999999999999999999"} {
		s.Reset(bytes.NewReader([]byte(in + ",")))
		if n, ok := s.Int(); ok {
			t.Errorf("Int took %q as %d", in, n)
		}
	}
	for _, in := range []string{`"a\"b"`, `"<"`, `"tab` + "\t" + `"`, `"open`, `x`} {
		s.Reset(bytes.NewReader([]byte(in)))
		if str, ok := s.Str(); ok {
			t.Errorf("Str took %q as %q", in, str)
		}
	}
	for _, in := range []string{`["1.2.3.4" ]`, `["01.2.3.4"]`, `[,]`, `["1.2.3.4",]`, `[1]`, `["1.2.3.4"`} {
		s.Reset(bytes.NewReader([]byte(in)))
		if got, ok := s.Addrs(); ok {
			t.Errorf("Addrs took %q as %v", in, got)
		}
	}
	s.Reset(io.MultiReader(bytes.NewReader([]byte("}}")), iotest.ErrReader(io.ErrUnexpectedEOF)))
	if rest, ok := s.Rest(); ok || string(rest) != "}}" {
		t.Errorf("Rest over a failing reader = %q, %v; want the bytes and false", rest, ok)
	}
}
