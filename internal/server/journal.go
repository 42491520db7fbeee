package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
)

// The coordinator's write-ahead journal: the durable half of the
// distributed job state that leases.go keeps in memory. Everything the
// control plane promises a worker — "your submission is accepted",
// "your lease is granted", and above all "your shard result is
// accepted" — is appended to a per-job journal and fsync'd BEFORE the
// HTTP response carrying that promise is written. A crashed
// coordinator therefore owns every acknowledged byte: replaying the
// journals at startup reconstructs each running distributed job, its
// accepted-shard set, and its lease table, so only the genuinely
// pending shards are re-exposed for claiming and no acknowledged work
// is ever re-executed.
//
// Layout: the journal lives beside the content-addressed store fan-out
// under <data dir>/journal/ — a non-2-hex-char name, so OpenStore's
// re-index skips it by construction. A job's journal is ONE
// append-only file from submission to removal:
//
//	<data dir>/journal/<jobID>.wal
//
// Only the request that makes a promise ever writes it, and only the
// request that files the merged run (or recovery finding it filed)
// ever unlinks it.
//
// Each record is one line:
//
//	w2 <crc32-hex8> <compact JSON>\n
//
// where the checksum is CRC-32 (IEEE) of exactly the JSON bytes. The
// prefix names the format version; the checksum turns "did this line
// land whole?" into a yes/no question, which is what makes the replay
// semantics clean:
//
//   - A damaged or unterminated FINAL line is a torn tail — the crash
//     interrupted an append whose record was never acknowledged (the
//     fsync-before-ack discipline guarantees this). It is dropped,
//     counted, cut off the file, and the job still recovers.
//   - A damaged line with anything after it is real corruption — the
//     disk lied, or an older build (w1 lines) wrote the file. The job
//     is surfaced as failed with code job_failed; it never panics the
//     coordinator and never merges doubtful bytes.
//
// A result record carries the upload's request body VERBATIM — the
// bytes the worker sent, gzip and all — not a re-marshalled payload.
// Uploads are compressed, so the record is already as small as
// any later compaction could make it: the journal is bounded by the
// compressed size of the uploads it acknowledges, and nothing ever has
// to rewrite it. Replay reads the body back through the same bounded
// accept path the HTTP handler uses (acceptUpload) — and the job holds
// the record's bytes, as the live path held its copy of them — so a
// journal that inflates past the upload limit fails its job instead of
// exhausting memory. Lines are framed by hand (appendWALLine), byte for
// byte what json.Marshal of the record framed.
//
// The journal records only distributed jobs. A local job's workers die
// with this process and it promises nothing outside it: the submission
// is re-sendable, the run atomic at the store layer (Put's rename), and
// a crash mid-run re-simulates — determinism makes the retry identical.
//
// Lifecycle: the journal is created (submit record, fsync'd) before
// the 202; grant/expiry records track the lease table (grants fsync'd
// before the claim response, expiries lazily — they are re-derivable
// from the clock); each accepted result is fsync'd before its 200 (see
// shardResultLocked). When the merged run lands in the store the file
// is deleted — the store entry, itself crash-atomic, is now the
// durable record. A failed job keeps its journal with a terminal
// "failed" record so restarts re-surface the failure instead of
// re-running a poisoned merge.

// walFormatPrefix versions the on-disk line format. Lines written by a
// build with another prefix are unrecognised bytes: damage, by the
// rules above.
const walFormatPrefix = "w2"

// walRecord is one journal line. Type discriminates; the other fields
// are a union over the record types:
//
//	submit: job, key, spec (canonical bytes), time
//	lease:  idx, event ("grant"|"expire"|"spec-grant"|"spec-expire"),
//	        worker, seq, token, expires, batch (grant batch size)
//	result: idx, worker, token, body (the upload as received), enc
//	failed: error, time
type walRecord struct {
	Type string `json:"t"`

	Job  string          `json:"job,omitempty"`
	Key  string          `json:"key,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`
	Time time.Time       `json:"time,omitzero"`

	Idx     int       `json:"idx,omitempty"`
	Event   string    `json:"event,omitempty"`
	Worker  string    `json:"worker,omitempty"`
	Seq     int       `json:"seq,omitempty"`
	Token   string    `json:"token,omitempty"`
	Expires time.Time `json:"expires,omitzero"`
	// BatchN is the number of shards granted in the same claim as this
	// grant — the straggler detector scales its patience by it, since a
	// worker executes its batch serially.
	BatchN int `json:"batch,omitempty"`

	// Body is a result record's upload: the gzip'd request body exactly
	// as it arrived (base64 on disk via encoding/json's []byte
	// convention). Enc is its Content-Encoding, always encGzip; replay
	// treats any other value as damage.
	Body []byte `json:"body,omitempty"`
	Enc  string `json:"enc,omitempty"`

	Error string `json:"error,omitempty"`
}

const (
	walSubmit = "submit"
	walLease  = "lease"
	walResult = "result"
	walFailed = "failed"

	walGrant      = "grant"
	walExpire     = "expire"
	walSpecGrant  = "spec-grant"
	walSpecExpire = "spec-expire"

	encGzip = "gzip"
)

const walSuffix = ".wal"

// walDir manages the journal directory. It is not itself locked: all
// mutation happens under mgr.mu (appends, removal) or before serving
// starts (replay).
type walDir struct {
	dir string
}

// openWALDir creates (if needed) the journal directory under the store
// root.
func openWALDir(root string) (*walDir, error) {
	dir := filepath.Join(root, "journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	return &walDir{dir: dir}, nil
}

// path names a job's journal file.
func (d *walDir) path(jobID string) string {
	return filepath.Join(d.dir, jobID+walSuffix)
}

// syncDir fsyncs the journal directory so file creations and removals
// are themselves durable. Best-effort: not every filesystem supports
// directory fsync, and the record-level fsync already carries the
// correctness-critical promises.
func (d *walDir) syncDir() { _ = syncDir(d.dir) }

// create opens a fresh journal for a job. Truncating an existing file
// is deliberate: job IDs restart per-process only above the recovered
// high-water mark (see recover), so a name collision means a stale
// file from a deleted job.
func (d *walDir) create(jobID string) (*jobWAL, error) {
	f, err := os.OpenFile(d.path(jobID), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	d.syncDir()
	return &jobWAL{f: f}, nil
}

// openAppend reopens a recovered job's journal for continued appends,
// cutting it at size — the end of its last whole record — first, so
// the next record cannot fuse with a torn tail.
func (d *walDir) openAppend(jobID string, size int64) (*jobWAL, error) {
	f, err := os.OpenFile(d.path(jobID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	return &jobWAL{f: f}, nil
}

// remove deletes a job's journal (after its run landed in the store).
func (d *walDir) remove(jobID string) error {
	if err := os.Remove(d.path(jobID)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	d.syncDir()
	return nil
}

// jobIDs lists the job IDs with journals on disk, sorted.
func (d *walDir) jobIDs() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), walSuffix); ok && id != "" && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// jobWAL is one job's open journal file. Appends are serialized by
// mgr.mu, like the in-memory state they shadow, and frame their lines
// in line, which they reuse.
type jobWAL struct {
	f    *os.File
	line []byte
}

// walLineRetainBytes is the largest line buffer a journal keeps between
// appends: a paper-scale result record — a gzip upload, base64'd — is
// ≈ 100 KB; a rare larger one is not worth holding.
const walLineRetainBytes = 1 << 20

// append frames, checksums and writes one record, returning the bytes
// written. It does NOT sync; callers batch appends and sync once
// before releasing the promise the records carry.
func (w *jobWAL) append(rec *walRecord) (int, error) {
	line, err := appendWALLine(w.line[:0], rec)
	if err != nil {
		return 0, fmt.Errorf("server: journal: marshal %s record: %w", rec.Type, err)
	}
	w.line = line
	if cap(line) > walLineRetainBytes {
		w.line = nil
	}
	n, err := w.f.Write(line)
	if err != nil {
		return n, fmt.Errorf("server: journal: append: %w", err)
	}
	return n, nil
}

// appendWALLine appends rec's journal line to b — the prefix, the
// CRC-32 of the record's JSON in hex, the JSON, a newline — byte for
// byte the line json.Marshal(rec) framed (TestWALRecordFramingMatchesMarshal).
// The JSON is assembled in place, in walRecord's field order with its
// omitempty/omitzero rules: a result record's body is base64'd straight
// into the line, and the checksum is written over a placeholder once the
// JSON is there, so a record costs one pass over its body and, in a
// reused b, no allocation.
func appendWALLine(b []byte, rec *walRecord) ([]byte, error) {
	b = slices.Grow(b, 256+len(rec.Spec)+len(rec.Error)+base64.StdEncoding.EncodedLen(len(rec.Body)))
	start := len(b)
	b = append(b, walFormatPrefix+" 00000000 "...)
	obj := len(b)
	b = append(b, `{"t":`...)
	b = dataset.AppendString(b, rec.Type)
	str := func(key, v string) {
		if v != "" {
			b = append(b, key...)
			b = dataset.AppendString(b, v)
		}
	}
	num := func(key string, v int) {
		if v != 0 {
			b = append(b, key...)
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	var err error
	when := func(key string, v time.Time) {
		if v.IsZero() || err != nil {
			return
		}
		var t []byte
		// MarshalJSON's form: quoted strict RFC 3339, failing where it fails.
		if t, err = v.AppendText(append(b, key+`"`...)); err == nil {
			b = append(t, '"')
		}
	}
	str(`,"job":`, rec.Job)
	str(`,"key":`, rec.Key)
	if len(rec.Spec) > 0 {
		// encoding/json compacts and HTML-escapes a RawMessage; the
		// submission record, once per job, keeps it doing so.
		spec, merr := json.Marshal(rec.Spec)
		if merr != nil {
			return b[:start], merr
		}
		b = append(append(b, `,"spec":`...), spec...)
	}
	when(`,"time":`, rec.Time)
	num(`,"idx":`, rec.Idx)
	str(`,"event":`, rec.Event)
	str(`,"worker":`, rec.Worker)
	num(`,"seq":`, rec.Seq)
	str(`,"token":`, rec.Token)
	when(`,"expires":`, rec.Expires)
	num(`,"batch":`, rec.BatchN)
	if len(rec.Body) > 0 {
		b = append(b, `,"body":"`...)
		b = base64.StdEncoding.AppendEncode(b, rec.Body)
		b = append(b, '"')
	}
	str(`,"enc":`, rec.Enc)
	str(`,"error":`, rec.Error)
	b = append(b, '}')
	if err != nil {
		return b[:start], err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(b[obj:]))
	hex.Encode(b[start+len(walFormatPrefix)+1:obj-1], sum[:])
	return append(b, '\n'), nil
}

// sync makes every append so far durable.
func (w *jobWAL) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: journal: sync: %w", err)
	}
	return nil
}

func (w *jobWAL) close() {
	if w != nil && w.f != nil {
		_ = w.f.Close()
	}
}

// walReplay is one journal's parsed content.
type walReplay struct {
	records []walRecord
	// size is the byte length of the whole records — where appends
	// resume once a torn tail is cut off.
	size int64
	// tornTail marks a damaged or unterminated final line: a crash
	// mid-append of a record nobody was ever promised. Dropped, not
	// fatal.
	tornTail bool
	// corrupt is non-nil when a damaged line has bytes after it — disk
	// corruption (or another build's format), not a torn append. The job
	// must fail.
	corrupt error
}

// readWAL parses one job's journal, classifying damage per the
// torn-tail vs mid-file-corruption rules above.
func (d *walDir) readWAL(jobID string) (walReplay, error) {
	data, err := os.ReadFile(d.path(jobID))
	if err != nil {
		return walReplay{}, fmt.Errorf("server: journal: %w", err)
	}
	var rep walReplay
	for off, n := 0, 1; off < len(data); n++ {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			rep.tornTail = true // the append never reached its newline
			break
		}
		rec, perr := parseWALLine(data[off : off+nl])
		off += nl + 1
		if perr != nil {
			if off < len(data) {
				rep.corrupt = fmt.Errorf("journal %s%s: line %d: %w (more follows — mid-file corruption)",
					jobID, walSuffix, n, perr)
			} else {
				rep.tornTail = true
			}
			break
		}
		rep.records = append(rep.records, rec)
		rep.size = int64(off)
	}
	return rep, nil
}

// parseWALLine validates one line's framing and checksum and returns
// its record.
func parseWALLine(line []byte) (walRecord, error) {
	var rec walRecord
	rest, ok := bytes.CutPrefix(line, []byte(walFormatPrefix+" "))
	if !ok {
		return rec, fmt.Errorf("bad frame prefix")
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return rec, fmt.Errorf("bad checksum frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum: %v", err)
	}
	body := rest[9:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return rec, fmt.Errorf("checksum mismatch: line says %08x, content is %08x", want, got)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("checksum valid but record unparseable: %v", err)
	}
	if rec.Type == "" {
		return rec, fmt.Errorf("record has no type")
	}
	return rec, nil
}
