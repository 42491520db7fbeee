package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/alloctest"
	"repro/internal/packet"
)

// traceValue is tr's JSON value as the Encoder writes it: its dataset
// line without the newline.
func traceValue(tr *Trace) []byte {
	line := appendTrace(nil, tr)
	return line[:len(line)-1]
}

// checkDecodeMatchesReflective is the differential: json.Unmarshal into
// a Trace (the hand-written decoder, with its fallback) against
// json.Unmarshal into traceJSON (encoding/json alone) — same error-ness,
// same value, alone and as an element of an array, which is how an
// upload carries it. Then data is scribbled over: nothing decoded may
// alias it.
func checkDecodeMatchesReflective(t *testing.T, data []byte) {
	t.Helper()
	var got Trace
	var want traceJSON
	errGot, errWant := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("Trace decode error %v, reflective decode error %v\ninput %q", errGot, errWant, data)
	}
	if !reflect.DeepEqual(got, Trace(want)) {
		t.Fatalf("Trace decoded to %+v\nreflective decode gives %+v\ninput %q", got, Trace(want), data)
	}

	nested := append(append([]byte{'['}, data...), ']')
	var gotList []Trace
	var wantList []traceJSON
	errGot, errWant = json.Unmarshal(nested, &gotList), json.Unmarshal(nested, &wantList)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("[]Trace decode error %v, reflective decode error %v\ninput %q", errGot, errWant, nested)
	}
	// After a type error the reflective decoder carries on and an
	// Unmarshaler's caller stops, so only successes compare by value.
	if errGot == nil {
		if len(gotList) != len(wantList) {
			t.Fatalf("[]Trace decoded %d elements, reflective decode %d\ninput %q", len(gotList), len(wantList), nested)
		}
		for i := range gotList {
			if !reflect.DeepEqual(gotList[i], Trace(wantList[i])) {
				t.Fatalf("element %d decoded to %+v\nreflective decode gives %+v\ninput %q",
					i, gotList[i], Trace(wantList[i]), nested)
			}
		}
	}

	// What the fast path accepts has one reading: it re-encodes to itself.
	var strict Trace
	if strict.parseCanonical(data) {
		if again := traceValue(&strict); !bytes.Equal(again, data) {
			t.Fatalf("the fast path accepted %q, which re-encodes as %q", data, again)
		}
	}

	for i := range data {
		data[i] = 'X'
	}
	for i := range nested {
		nested[i] = 'X'
	}
	if !reflect.DeepEqual(got, Trace(want)) {
		t.Fatal("the decoded Trace changed when its input was overwritten: it aliases the buffer")
	}
	for i := range gotList {
		if !reflect.DeepEqual(gotList[i], Trace(wantList[i])) {
			t.Fatal("a decoded []Trace element changed when its input was overwritten: it aliases the buffer")
		}
	}
}

// decodeSeeds are canonical values and one mutation of each kind the
// fast path must hand to the reflective decoder (or, for the broken
// ones, fail exactly as it does).
func decodeSeeds() [][]byte {
	full := Observation{Server: packet.AddrFrom4(255, 255, 255, 255), UDPReachable: true, UDPECTReachable: true,
		UDPAttempts: 6, UDPECTAttempts: 6, TCPReachable: true, TCPECNReachable: true, TCPECN: true, HTTPStatus: 302}
	sample := Trace{Vantage: "Glasgow (wired)", Batch: 2, Index: 77, Started: 36 * time.Hour,
		Observations: []Observation{{}, full, {Server: packet.AddrFrom4(10, 0, 0, 1), UDPAttempts: math.MaxUint8, HTTPStatus: math.MaxUint16}}}
	canonical := string(traceValue(&sample))
	one := `{"vantage":"v","batch":1,"index":0,"started":0,"observations":[{"server":"10.0.0.1","udp":true,"udp_ect":false,"udp_attempts":1,"tcp":true,"tcp_ecn":true,"tcp_ecn_nego":false,"http":200}]}`

	seeds := []string{
		canonical,
		one,
		string(traceValue(&Trace{Vantage: "nil observations"})),
		string(traceValue(&Trace{Vantage: "empty observations", Observations: []Observation{}})),
		string(traceValue(&Trace{Batch: math.MinInt64, Index: math.MaxInt64, Started: math.MinInt64})),
		string(traceValue(&Trace{Vantage: "Zürich <&> \"q\" \\  "})), // the encoder's own escapes
		canonical + "\n",
		// whitespace
		strings.Replace(one, `,"batch"`, `, "batch"`, 1),
		strings.Replace(one, `[{`, "[\n{", 1),
		" " + one,
		// reordered, duplicate, upper-case and unknown keys
		`{"batch":1,"vantage":"v","index":0,"started":0,"observations":null}`,
		strings.Replace(one, `"udp":true,"udp_ect":false`, `"udp_ect":false,"udp":true`, 1),
		strings.Replace(one, `"batch":1`, `"batch":1,"batch":2`, 1),
		strings.Replace(one, `"http":200`, `"http":200,"http":404`, 1),
		strings.Replace(one, `"vantage"`, `"VANTAGE"`, 1),
		strings.Replace(one, `"server"`, `"Server"`, 1),
		strings.Replace(one, `"index":0`, `"index":0,"extra":[1,{"server":"x"}]`, 1),
		`{"vantage":"v"}`,
		`{}`,
		// escapes and non-plain strings
		strings.Replace(one, `"v"`, `"v\n\"\\"`, 1),
		strings.Replace(one, `"v"`, `"<v>&"`, 1),
		strings.Replace(one, `"v"`, `"Zürich"`, 1),
		strings.Replace(one, `"v"`, "\"bad \xff utf8\"", 1),
		strings.Replace(one, `"v"`, `"{\"server\":\""`, 1),
		// numbers: leading zeros, negatives, written zeros, fractions, exponents, overflow
		strings.Replace(one, `"batch":1`, `"batch":01`, 1),
		strings.Replace(one, `"batch":1`, `"batch":-1`, 1),
		strings.Replace(one, `"batch":1`, `"batch":-0`, 1),
		strings.Replace(one, `"batch":1`, `"batch":1.0`, 1),
		strings.Replace(one, `"batch":1`, `"batch":1e2`, 1),
		strings.Replace(one, `"batch":1`, `"batch":9223372036854775808`, 1),
		strings.Replace(one, `"started":0`, `"started":-9223372036854775809`, 1),
		strings.Replace(one, `"started":0`, `"started":99999999999999999999`, 1),
		strings.Replace(one, `"udp_attempts":1`, `"udp_attempts":0`, 1),
		strings.Replace(one, `"udp_attempts":1`, `"udp_attempts":-3`, 1),
		strings.Replace(one, `"http":200`, `"http":"200"`, 1),
		// addresses
		strings.Replace(one, `10.0.0.1`, `10.0.0.01`, 1),
		strings.Replace(one, `10.0.0.1`, `10.0.0.256`, 1),
		strings.Replace(one, `10.0.0.1`, `10.0.0`, 1),
		strings.Replace(one, `10.0.0.1`, `10.0.0.1.2`, 1),
		strings.Replace(one, `10.0.0.1`, `::ffff:10.0.0.1`, 1),
		strings.Replace(one, `10.0.0.1`, ``, 1),
		// null and wrong types
		`null`,
		`[]`,
		`"trace"`,
		strings.Replace(one, `"v"`, `null`, 1),
		strings.Replace(one, `"udp":true`, `"udp":null`, 1),
		strings.Replace(one, `"udp":true`, `"udp":1`, 1),
		strings.Replace(one, `"server":"10.0.0.1"`, `"server":null`, 1),
		strings.Replace(one, `[{`, `[null,{`, 1),
		strings.Replace(one, `"observations":[`, `"observations":[[`, 1),
		// truncated and trailing garbage
		one[:len(one)-1],
		one[:len(one)/2],
		one + `}`,
		one + one,
		one + `{"server":"`,
		strings.Replace(one, `}]}`, `},]}`, 1),
		strings.Replace(one, `[{`, `[,{`, 1),
		``,
	}
	// Each narrowed field at, inside and past the edges of its range: the
	// fast path takes 1..255 and 1..65535 and refuses the rest, which
	// encoding/json refuses too (a uint8 or uint16 holds no -1 or 256).
	bothCounts := strings.Replace(one, `"udp_attempts":1`, `"udp_attempts":1,"udp_ect_attempts":1`, 1)
	for _, field := range []string{`"udp_attempts":1`, `"udp_ect_attempts":1`, `"http":200`} {
		key, _, _ := strings.Cut(field, ":")
		for _, v := range []string{"-1", "0", "255", "256", "65535", "65536"} {
			seeds = append(seeds, strings.Replace(bothCounts, field, key+":"+v, 1))
		}
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzTraceUnmarshal holds the hand-written decoder to encoding/json
// for arbitrary bytes. Its seed corpus is the unit test.
func FuzzTraceUnmarshal(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesReflective(t, data)
	})
}

// TestRangesRefusedOnBothPaths: a count or status the row's field cannot
// hold is an error from the fast path's grammar, from its count-only
// form and from encoding/json alike — never a value truncated to fit —
// and the largest value each field holds is accepted by all three.
func TestRangesRefusedOnBothPaths(t *testing.T) {
	const one = `{"vantage":"v","batch":1,"index":0,"started":0,"observations":[{"server":"10.0.0.1","udp":true,"udp_ect":true,` +
		`"udp_attempts":%s,"udp_ect_attempts":%s,"tcp":true,"tcp_ecn":true,"tcp_ecn_nego":false,"http":%s}]}`
	for _, c := range []struct {
		udp, ect, http string
		ok             bool
	}{
		{"255", "255", "65535", true},
		{"1", "1", "1", true},
		{"256", "1", "200", false},
		{"-1", "1", "200", false},
		{"1", "256", "200", false},
		{"1", "-1", "200", false},
		{"1", "1", "65536", false},
		{"1", "1", "-404", false},
		{"1", "1", "4294967496", false}, // 200 mod 2³²
	} {
		data := []byte(fmt.Sprintf(one, c.udp, c.ect, c.http))
		var fast, reflective Trace
		if got := fast.parseCanonical(data); got != c.ok {
			t.Errorf("parseCanonical = %v, want %v\ninput %s", got, c.ok, data)
		}
		if got := scanTrace(data); got != c.ok {
			t.Errorf("scanTrace = %v, want %v\ninput %s", got, c.ok, data)
		}
		if err := json.Unmarshal(data, (*traceJSON)(&reflective)); (err == nil) != c.ok {
			t.Errorf("encoding/json error = %v, want ok = %v\ninput %s", err, c.ok, data)
		}
		if err := json.Unmarshal(data, new(Trace)); (err == nil) != c.ok {
			t.Errorf("Trace decode error = %v, want ok = %v\ninput %s", err, c.ok, data)
		}
	}
}

// TestFastPathTakesWhatWeWrite: the strict parser itself — not the
// fallback behind it — accepts every encoder output with a plain
// vantage name and decodes it to the trace that was encoded, so it
// cannot rot into declining everything; and it declines exactly the
// others, which the encoder wrote through encoding/json's escaper.
func TestFastPathTakesWhatWeWrite(t *testing.T) {
	check := func(tr *Trace) bool {
		var got Trace
		ok := got.parseCanonical(traceValue(tr))
		if !PlainString(tr.Vantage) {
			return !ok && reflect.DeepEqual(got, Trace{})
		}
		return ok && reflect.DeepEqual(got, *tr)
	}
	f := func(raw string, plain bool, batch, index int, started int64, obs []Observation, shape uint8) bool {
		vantage := raw
		if plain {
			b := make([]byte, 0, len(raw))
			for _, r := range raw {
				if c := byte(0x20 + r%95); plainStringByte(c) {
					b = append(b, c)
				}
			}
			vantage = string(b)
		}
		tr := Trace{Vantage: vantage, Batch: batch, Index: index, Started: time.Duration(started), Observations: obs}
		switch shape % 4 {
		case 0:
			tr.Observations = nil
		case 1:
			tr.Observations = []Observation{}
		}
		return check(&tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	// Every omitempty field zero and set, signs, and the integer extremes.
	corners := []Trace{
		{},
		{Vantage: "nil observations"},
		{Vantage: "empty observations", Observations: []Observation{}},
		{Batch: math.MinInt64, Index: math.MaxInt64, Started: math.MinInt64, Observations: []Observation{{}}},
		{Batch: -1, Index: -1, Started: math.MaxInt64, Observations: []Observation{
			{Server: packet.AddrFrom4(255, 255, 255, 255), UDPReachable: true, UDPECTReachable: true,
				UDPAttempts: 6, UDPECTAttempts: 6, TCPReachable: true, TCPECNReachable: true, TCPECN: true, HTTPStatus: 302},
			{Server: packet.AddrFrom4(0, 10, 100, 200), UDPAttempts: math.MaxUint8, UDPECTAttempts: math.MaxUint8, HTTPStatus: math.MaxUint16},
			{UDPECTAttempts: 1},
		}},
	}
	for i := range corners {
		if !check(&corners[i]) {
			t.Errorf("the fast path declined or misread %s", traceValue(&corners[i]))
		}
	}
	for _, vantage := range []string{`quote "`, `back\slash`, "<", ">", "&", "tab\t", "del\x7f", "Zürich", "bad \xff"} {
		if !check(&Trace{Vantage: vantage, Observations: []Observation{{}}}) {
			t.Errorf("the fast path took a trace whose vantage %q the encoder had to escape", vantage)
		}
	}
}

// TestDecodeIntoUsedTraceIsReflective: a Trace that already holds
// observations decodes exactly as encoding/json would decode into it —
// merging into the old elements included — because only a fresh one
// takes the fast path.
func TestDecodeIntoUsedTraceIsReflective(t *testing.T) {
	old := Trace{Vantage: "old", Batch: 9, Observations: []Observation{{HTTPStatus: 200, UDPAttempts: 3}, {HTTPStatus: 404}}}
	data := traceValue(&Trace{Vantage: "new", Observations: []Observation{{Server: packet.AddrFrom4(1, 2, 3, 4)}}})

	got := Trace{Vantage: old.Vantage, Batch: old.Batch, Observations: append([]Observation(nil), old.Observations...)}
	want := traceJSON{Vantage: old.Vantage, Batch: old.Batch, Observations: append([]Observation(nil), old.Observations...)}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Trace(want)) {
		t.Errorf("decode into a used Trace gives %+v, encoding/json gives %+v", got, Trace(want))
	}
}

// TestTraceDecodeAllocs pins what a paper-scale trace costs to decode:
// the observation slice, the vantage string, nothing per observation.
func TestTraceDecodeAllocs(t *testing.T) {
	d := benchDataset(1, 2500)
	data := traceValue(&d.Traces[0])
	var got Trace
	allocs := testing.AllocsPerRun(20, func() {
		got = Trace{}
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a 2500-observation trace took %.0f allocations, want ≤ 3", allocs)
	}
	if !reflect.DeepEqual(got, d.Traces[0]) {
		t.Error("the decoded trace differs from the encoded one")
	}
	if cap(got.Observations) != len(got.Observations) {
		t.Errorf("observations decoded into cap %d for len %d, want an exactly-sized slice",
			cap(got.Observations), len(got.Observations))
	}
}

// paperRead returns the paper-sized trace set BenchmarkDatasetWrite
// encodes, encoded, and a step that decodes it.
func paperRead(tb testing.TB) (encoded []byte, read func()) {
	var buf bytes.Buffer
	if err := Write(&buf, benchDataset(13, 2500)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), func() {
		d, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil || len(d.Traces) != 13 {
			tb.Fatalf("Read = %v, %v", d, err)
		}
	}
}

// BenchmarkDatasetRead decodes the paper-sized trace set
// BenchmarkDatasetWrite encodes.
func BenchmarkDatasetRead(b *testing.B) {
	encoded, read := paperRead(b)
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// TestDatasetReadAllocs holds a paper-sized Read at ≤ 1 904 400 B and
// ≤ 80 allocations: the reading when the path last changed + 20 %. It
// read 1.59 MB — 0.53 MB of 14-byte observations, 13 exactly-sized
// slices of 40 KB, plus json.Decoder's line buffer — and 66 allocs,
// where reflective encoding/json grew every slice by doubling and
// allocated per address.
func TestDatasetReadAllocs(t *testing.T) {
	_, read := paperRead(t)
	r, _ := alloctest.Measure(1, nil, read)
	bytes, allocs := r.Bytes, r.Allocs
	t.Logf("a paper-sized Read: %d B, %d allocs", bytes, allocs)
	if bytes > 1_904_400 || allocs > 80 {
		t.Errorf("a paper-sized Read: %d B and %d allocs, want ≤ 1904400 B and ≤ 80 allocs", bytes, allocs)
	}
}
