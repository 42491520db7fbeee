package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"repro/internal/packet"
)

// encodeChunk is how many encoded bytes an Encoder gathers before
// handing them to its writer. Small-world traces are a few KB each and
// would otherwise cost a write call apiece; a paper-scale trace is
// ≈ 350 KB and goes out in several pieces, so the scratch holds a
// chunk, never a trace.
const encodeChunk = 64 << 10

// chunkSlack is room past encodeChunk for what is appended between two
// flush checks — one observation (≤ 160 bytes) or a trace header with a
// generated vantage name — so the scratch does not regrow in practice.
const chunkSlack = 1 << 10

// Encoder is the tree's one trace encoder: a chunked appender of
// hand-assembled JSON over an io.Writer. Write uses it for dataset
// lines and campaign.ShardResultWire for the upload body, which is why
// it also exposes the envelope's scalar forms. Every method's output is
// byte-identical to encoding/json's for the same value
// (TestAppendTraceMatchesJSON, FuzzAppendTrace, and campaign's
// TestWireEncodeMatchesMarshal hold it there).
//
// The first failure — the writer's or Marshal's — sticks: later calls
// append nothing and Flush returns it, as with bufio.Writer. The
// scratch is owned by the Encoder and survives Reset, so a recycled
// Encoder encodes without allocating.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{}
	e.Reset(w)
	return e
}

// Reset discards unflushed bytes and any error and points e at w.
func (e *Encoder) Reset(w io.Writer) {
	if e.buf == nil {
		e.buf = make([]byte, 0, encodeChunk+chunkSlack)
	}
	e.w, e.buf, e.err = w, e.buf[:0], nil
}

// Flush writes what is buffered and returns the Encoder's first error.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// spill flushes once a chunk has gathered.
func (e *Encoder) spill() {
	if len(e.buf) >= encodeChunk {
		_ = e.Flush() // a failure sticks in e.err; the final Flush reports it
	}
}

// Raw appends s verbatim: punctuation and key literals.
func (e *Encoder) Raw(s string) {
	e.buf = append(e.buf, s...)
	e.spill()
}

// String appends s as a JSON string.
func (e *Encoder) String(s string) {
	e.buf = AppendString(e.buf, s)
	e.spill()
}

// Int appends n in decimal.
func (e *Encoder) Int(n int64) {
	e.buf = strconv.AppendInt(e.buf, n, 10)
}

// Addr appends a as the quoted dotted quad Addr.MarshalText renders.
func (e *Encoder) Addr(a packet.Addr) {
	e.buf = append(e.buf, '"')
	e.buf = appendAddr(e.buf, a)
	e.buf = append(e.buf, '"')
	e.spill()
}

// Marshal appends json.Marshal(v): for the small, float-bearing structs
// of an envelope that are not worth a hand-written form.
func (e *Encoder) Marshal(v any) {
	if e.err != nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.buf = append(e.buf, raw...)
	e.spill()
}

// Trace appends t as a JSON object — exactly json.Marshal(t)'s bytes —
// flushing between observations. The schema is fixed and flat, so the
// object is assembled by hand: reflective encoding/json spends an
// allocation per observation on Addr.MarshalText alone, and a campaign
// emits millions of observations.
func (e *Encoder) Trace(t *Trace) {
	if e.err != nil {
		return
	}
	b := append(e.buf, `{"vantage":`...)
	b = AppendString(b, t.Vantage)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(t.Batch), 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(t.Index), 10)
	b = append(b, `,"started":`...)
	b = strconv.AppendInt(b, int64(t.Started), 10)
	e.buf = append(b, `,"observations":`...)
	if t.Observations == nil {
		e.Raw("null}")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range t.Observations {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendObservation(e.buf, &t.Observations[i])
		e.spill()
	}
	e.Raw("]}")
}

// Splice appends trace — one trace in exactly the form Trace writes,
// as Scanner.Trace hands it out — with its index replaced: byte for
// byte what Trace writes for the decoded trace with Index = index
// (FuzzTraceScan), without decoding it. Only the index digits are
// rewritten; the rest goes to the writer as it is, so a shard's traces
// move from its upload into the merged dataset by copy. Bytes of any
// other form are an error that sticks.
func (e *Encoder) Splice(trace []byte, index int) {
	if e.err != nil {
		return
	}
	// A canonical trace's vantage is plain — it holds no quote — so the
	// first keys found are the trace's own.
	key := bytes.Index(trace, []byte(indexKey))
	started := bytes.Index(trace, []byte(startedKey))
	if key < 0 || started < key {
		e.err = errors.New("dataset: splice: not a canonical trace")
		return
	}
	e.buf = append(e.buf, trace[:key+len(indexKey)]...)
	e.buf = strconv.AppendInt(e.buf, int64(index), 10)
	e.write(trace[started:])
}

const (
	indexKey   = `,"index":`
	startedKey = `,"started":`
)

// write appends p, handing it to the writer directly, after what is
// buffered, when it would not fit the chunk.
func (e *Encoder) write(p []byte) {
	if len(e.buf)+len(p) <= encodeChunk+chunkSlack {
		e.buf = append(e.buf, p...)
		e.spill()
		return
	}
	if e.Flush() == nil {
		_, e.err = e.w.Write(p)
	}
}

func appendObservation(b []byte, o *Observation) []byte {
	b = append(b, `{"server":"`...)
	b = appendAddr(b, o.Server)
	b = append(b, `","udp":`...)
	b = strconv.AppendBool(b, o.UDPReachable)
	b = append(b, `,"udp_ect":`...)
	b = strconv.AppendBool(b, o.UDPECTReachable)
	if o.UDPAttempts != 0 {
		b = append(b, `,"udp_attempts":`...)
		b = strconv.AppendUint(b, uint64(o.UDPAttempts), 10)
	}
	if o.UDPECTAttempts != 0 {
		b = append(b, `,"udp_ect_attempts":`...)
		b = strconv.AppendUint(b, uint64(o.UDPECTAttempts), 10)
	}
	b = append(b, `,"tcp":`...)
	b = strconv.AppendBool(b, o.TCPReachable)
	b = append(b, `,"tcp_ecn":`...)
	b = strconv.AppendBool(b, o.TCPECNReachable)
	b = append(b, `,"tcp_ecn_nego":`...)
	b = strconv.AppendBool(b, o.TCPECN)
	if o.HTTPStatus != 0 {
		b = append(b, `,"http":`...)
		b = strconv.AppendUint(b, uint64(o.HTTPStatus), 10)
	}
	return append(b, '}')
}

// appendAddr appends a in dotted-quad notation, unquoted.
func appendAddr(b []byte, a packet.Addr) []byte {
	for i, octet := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return b
}

// plainStringByte reports whether c stands for itself between JSON
// quotes under encoding/json's default (HTML-escaping) encoder:
// printable ASCII other than the quote, the backslash and the
// HTML-sensitive <, > and &. It is the one definition of "plain" the
// encoder and the decoder's fast path share — a string of such bytes is
// written between quotes as is, and read back by copying.
func plainStringByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// PlainString reports whether every byte of s is plain: whether s is a
// string Scanner.Str reads. A worker ID that is not cannot be scanned
// out of an upload, so the coordinator and the worker refuse one.
func PlainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainStringByte(s[i]) {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string, exactly as encoding/json
// writes it. A plain string — every vantage name the topology
// generates, every worker ID and lease token — is copied between
// quotes; any string holding a byte encoding/json would escape, replace
// or even look at twice (control characters, anything non-ASCII) goes
// through json.Marshal itself.
func AppendString(b []byte, s string) []byte {
	if !PlainString(s) {
		quoted, _ := json.Marshal(s) // a string cannot fail to marshal
		return append(b, quoted...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
