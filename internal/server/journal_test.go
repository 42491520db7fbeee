package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"
	"time"
)

// marshalWALLine is the journal line as json.Marshal framed it: the
// format appendWALLine must keep byte for byte.
func marshalWALLine(rec *walRecord) (string, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %08x %s\n", walFormatPrefix, crc32.ChecksumIEEE(body), body), nil
}

// TestWALRecordFramingMatchesMarshal: every record kind — a gzip and an
// identity result body among them — frames to exactly the line
// json.Marshal framed, through one reused buffer, which appending a
// result record then leaves unallocated; what json.Marshal refuses is
// refused; and the lines read back through parseWALLine.
func TestWALRecordFramingMatchesMarshal(t *testing.T) {
	at := time.Date(2015, 10, 28, 12, 34, 56, 789000000, time.FixedZone("CET", 3600))
	upload := sampleUpload(t)
	records := []walRecord{
		{Type: walSubmit, Job: "j-000001", Key: "c4a7eb863cbe522a", Time: at,
			Spec: json.RawMessage(`{"spec": 1, "scale":"small", "note":"<&>"}`)},
		{Type: walLease, Idx: 3, Event: walGrant, Worker: "w1", Seq: 2, Token: "j-000001.3.2",
			Expires: at.Add(30 * time.Second), BatchN: 4, Time: at},
		{Type: walLease, Event: walSpecGrant, Worker: "wB", Seq: 3, Token: "j-000001.0.3", Expires: at, Time: at},
		{Type: walLease, Idx: 3, Event: walExpire, Time: at.UTC()},
		{Type: walLease, Idx: 7, Event: walSpecExpire, Time: time.Now()}, // a monotonic reading, which neither writes
		{Type: walResult, Idx: 12, Worker: "w1", Token: "j-000001.12.1", Body: gzipBytes(t, upload), Enc: encGzip, Time: at},
		{Type: walResult, Idx: 1, Worker: `w"2 <&>`, Token: "j-000001.1.1", Body: upload, Enc: "identity", Time: at}, // replay refuses it; framing does not care
		{Type: walFailed, Error: "merge: \"quoted\" <html> &   \xff\t", Time: at},
		{Type: walLease, Idx: -1, Seq: -5, BatchN: -2},
		{Type: "from-a-newer-build"},
	}
	var reused []byte
	for _, rec := range records {
		want, err := marshalWALLine(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendWALLine(reused[:0], &rec)
		if err != nil || string(got) != want {
			t.Fatalf("%s record framed as\n%q, %v\njson.Marshal framed\n%q", rec.Type, got, err, want)
		}
		back, err := parseWALLine(bytes.TrimSuffix(got, []byte("\n")))
		if err != nil || back.Type != rec.Type || back.Idx != rec.Idx || !bytes.Equal(back.Body, rec.Body) {
			t.Fatalf("%s record reads back as %+v, %v", rec.Type, back, err)
		}
		reused = got
	}
	if err := quick.Check(func(idx, seq int, worker, token, errText string, body []byte) bool {
		rec := walRecord{Type: walResult, Idx: idx, Seq: seq, Worker: worker, Token: token, Error: errText, Body: body}
		want, err := marshalWALLine(&rec)
		got, gotErr := appendWALLine(nil, &rec)
		return err == nil && gotErr == nil && string(got) == want
	}, nil); err != nil {
		t.Error(err)
	}

	for _, rec := range []walRecord{
		{Type: walSubmit, Spec: json.RawMessage(`{not json`)},
		{Type: walLease, Expires: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		if _, err := marshalWALLine(&rec); err == nil {
			t.Fatalf("test setup: json.Marshal takes %+v", rec)
		}
		if line, err := appendWALLine([]byte("kept"), &rec); err == nil || string(line) != "kept" {
			t.Errorf("appendWALLine(%+v) = %q, %v; want the buffer untouched and an error", rec, line, err)
		}
	}

	result := &records[5]
	line := make([]byte, 0, 2*len(result.Body)+1024)
	if allocs := testing.AllocsPerRun(20, func() { line, _ = appendWALLine(line[:0], result) }); allocs > 0 {
		t.Errorf("framing a result record into a grown buffer took %.0f allocations, want 0", allocs)
	}
}
