package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/freelist"
)

// Request-body ingest. A shard-result upload is the coordinator's one
// large input — ≈ 70 KB of gzip inflating to ≈ 2.1 MB of JSON at paper
// scale — and it is read and inflated through scratch the coordinator
// owns and reuses, instead of an io.ReadAll and an inflate-by-doubling
// per request.
//
// An upload is not decoded. Workers write it in exactly one form
// (apiclient: the bytes json.Marshal gives the request), which differs
// from the dataset lines it will become only in each trace's index, so
// the accept path scans it — inflating a window at a time, checking
// each trace with the trace decoder's own grammar in its count-only
// form, decoding only the few hundred bytes of header — and the job
// keeps the compressed body the journal holds anyway. The merge splices
// its traces into the store (jobMgr.writeDataset). A body in any other
// form, valid JSON all the same, goes to the reflective decoder and is
// held decoded, like a loopback result; the accepted set and every
// value read are the reflective decoder's either way
// (FuzzShardResultDecode).
//
// Ownership (DESIGN.md §13.2): an ingestBuf belongs to one request —
// or one journal replay, or one merge — from ingestPool.get to put, and
// put happens only after everything that reads the raw body has
// returned: for an upload that includes the journal append inside
// jobMgr.ShardResult, which writes those bytes to disk verbatim, and
// the copy of them the accepted shard keeps. Nothing else read out of a
// buffer aliases it: the scanned header is copied out (strings,
// exactly-sized server list, encoding/json's congestion and stats), and
// a decoded wire shares no memory with its input — encoding/json copies
// every string it produces and dataset.(*Trace).UnmarshalJSON copies
// the vantage name and parses everything else into values.
// FuzzShardResultDecode scribbles over the buffers to hold both to that.

// bodyHintBytes caps how much a Content-Length may reserve up front.
// The header is the client's claim, not bytes received: past the hint
// the buffer grows only as the body actually arrives.
const bodyHintBytes = 1 << 20

// ingestBuf is one request's read-and-decode scratch.
type ingestBuf struct {
	body     bytes.Buffer     // the request body as it arrived
	inflated bytes.Buffer     // a gzip body's inflated form, for the reflective decoder
	src      bytes.Reader     // feeds zr, or the reader directly
	zr       *gzip.Reader     // nil until the first gzip body
	lim      io.LimitedReader // the byte budget over what a scan reads
	scan     dataset.Scanner  // reads an upload a trace at a time
}

// ingestPool recycles ingestBufs through the bounded free list the
// worker's upload encoders use too; put drops any buffer that grew past
// freelist.RetainBytes — maxResultBytes admits 256 MiB bodies, and one
// of those must not stay resident for the life of the coordinator — and
// keeps the rest, gzip state included.
type ingestPool struct {
	list freelist.List[ingestBuf]
}

func (p *ingestPool) get() *ingestBuf { return p.list.Get() }

func (p *ingestPool) put(b *ingestBuf) {
	if b.body.Cap() > freelist.RetainBytes {
		b.body = bytes.Buffer{}
	}
	if b.inflated.Cap() > freelist.RetainBytes {
		b.inflated = bytes.Buffer{}
	}
	if b.scan.Cap() > freelist.RetainBytes {
		b.scan = dataset.Scanner{}
	}
	b.scan.Reset(nil)
	b.lim.R = nil
	b.src.Reset(nil) // do not pin the last body read (a journal's or a held one is not ours)
	p.list.Put(b)
}

// readBody reads a bounded request body exactly as it arrived — still
// compressed, if the client compressed it. The result is valid until b
// is reused.
func (b *ingestBuf) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	b.body.Reset()
	if hint := min(r.ContentLength, limit, bodyHintBytes); hint > 0 {
		// MinRead more, or ReadFrom doubles the buffer just to see EOF.
		b.body.Grow(int(hint) + bytes.MinRead)
	}
	if _, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, faultf(http.StatusBadRequest, codeBadRequest, "read body: %v", err)
	}
	return b.body.Bytes(), nil
}

// open returns the JSON stream of raw, a body in encoding enc: raw
// itself, or its inflation through b's reused gzip reader. Either way at
// most limit+1 bytes are read from it; b.lim.N == 0 afterwards means the
// body is over the limit.
func (b *ingestBuf) open(raw []byte, enc string, limit int64) (io.Reader, error) {
	b.src.Reset(raw)
	var r io.Reader = &b.src
	if enc == encGzip {
		if b.zr == nil {
			b.zr = new(gzip.Reader)
		}
		if err := b.zr.Reset(&b.src); err != nil {
			return nil, faultf(http.StatusBadRequest, codeBadRequest, "gzip body: %v", err)
		}
		r = b.zr
	}
	b.lim = io.LimitedReader{R: r, N: limit + 1}
	return &b.lim, nil
}

// decodeJSON unmarshals a JSON body into v, classifying failures as
// bad_request faults. An encGzip body is inflated first (net/http does
// not decompress request bodies); the byte budget applies to the
// inflated stream — at most limit+1 bytes are ever inflated — so a
// compression bomb is a 400, not an allocation. The inflate buffer is
// sized once, from the gzip trailer (inflateHint). It serves claim and
// heartbeat bodies and every upload the scan does not take. raw may be
// b's own body.
func (b *ingestBuf) decodeJSON(raw []byte, enc string, limit int64, v any) error {
	body := raw
	if enc == encGzip {
		r, err := b.open(raw, enc, limit)
		if err != nil {
			return err
		}
		b.inflated.Reset()
		if hint := inflateHint(raw, limit); b.inflated.Cap() < hint {
			// Replaced, not grown: Grow reserves twice the old capacity
			// whenever that exceeds what is asked for.
			b.inflated = *bytes.NewBuffer(make([]byte, 0, hint))
		}
		if _, err := b.inflated.ReadFrom(r); err != nil {
			return faultf(http.StatusBadRequest, codeBadRequest, "read body: %v", err)
		}
		if int64(b.inflated.Len()) > limit {
			return faultf(http.StatusBadRequest, codeBadRequest,
				"decompressed body exceeds the %d-byte limit", limit)
		}
		body = b.inflated.Bytes()
	}
	if err := json.Unmarshal(body, v); err != nil {
		return faultf(http.StatusBadRequest, codeBadRequest, "parse body: %v", err)
	}
	return nil
}

// maxDeflateRatio is the most deflate can expand its input (zlib's
// documented limit): the size of an honest worst-case body.
const maxDeflateRatio = 1032

// inflateHint is how much to reserve for the inflated form of the gzip
// body raw before reading it, so the buffer is grown once rather than
// by doubling: the size the gzip trailer's ISIZE field claims, plus the
// spare bytes.Buffer.ReadFrom wants in hand to see EOF. The trailer is
// the client's claim, so it is capped by the byte budget and by what
// raw could inflate to at all — a lying trailer reserves no more than a
// genuine bomb of the same size makes ReadFrom allocate anyway.
func inflateHint(raw []byte, limit int64) int {
	if len(raw) < 4 {
		return 0
	}
	claimed := int64(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	return int(min(claimed, limit+1, maxDeflateRatio*int64(len(raw)))) + bytes.MinRead
}

// decodeBody reads and unmarshals a bounded JSON request body into v,
// transparently inflating a Content-Encoding: gzip one.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	b := s.mgr.ingest.get()
	defer s.mgr.ingest.put(b)
	raw, err := b.readBody(w, r, limit)
	if err != nil {
		return err
	}
	return b.decodeJSON(raw, bodyEncoding(r), limit, v)
}

// upload is a shard-result request body as the accept path reads it.
type upload struct {
	worker, lease string
	result        heldResult
}

// acceptUpload reads the shard-result body raw (encoding enc): by scan
// when it is in exactly the form workers write — the result is then
// held as the body, attached by the caller — and otherwise through the
// reflective decoder, the result held decoded. The HTTP handler and
// journal replay both read uploads through it.
func (b *ingestBuf) acceptUpload(raw []byte, enc string, limit int64) (upload, error) {
	if u, ok := b.scanUpload(raw, enc, limit); ok {
		return u, nil
	}
	var req leaseRequest
	if err := b.decodeJSON(raw, enc, limit, &req); err != nil {
		return upload{}, err
	}
	if req.Result == nil {
		return upload{}, faultf(http.StatusBadRequest, codeResultInvalid, "result is required")
	}
	return upload{worker: req.Worker, lease: req.Lease, result: wireResult(req.Result)}, nil
}

// scanUpload reads raw as exactly the bytes apiclient writes for a
// result upload —
//
//	{"worker":…,"lease":…,"result":{"v":…,"spec_hash":…,"shard":…,"slice":…,
//	 "vantage":…,"traces":[…],"servers":[…],"congestion":{…},"stats":{…}}}
//
// with plain strings, canonical integers and traces, and nothing after
// — and reports false for anything else, gzip and budget failures
// included, which the reflective decoder then decides on. The traces
// are checked and counted, not kept; tracesAt records where they start.
func (b *ingestBuf) scanUpload(raw []byte, enc string, limit int64) (u upload, ok bool) {
	r, err := b.open(raw, enc, limit)
	if err != nil {
		return upload{}, false
	}
	s := &b.scan
	s.Reset(r)
	h := &u.result.resultHead
	str := func(dst *string) bool {
		v, ok := s.Str()
		if ok && dst != nil {
			*dst = string(v)
		}
		return ok
	}
	num := func(dst *int) bool {
		v, ok := s.Int()
		*dst = int(v)
		return ok && int64(*dst) == v
	}
	if !(s.Lit(`{"worker":`) && str(&u.worker) &&
		s.Lit(`,"lease":`) && str(&u.lease) &&
		s.Lit(`,"result":{"v":`) && num(&h.version) &&
		s.Lit(`,"spec_hash":`) && str(&h.specHash) &&
		s.Lit(`,"shard":`) && num(&h.shard) &&
		s.Lit(`,"slice":`) && num(&h.slice) &&
		s.Lit(`,"vantage":`) && str(nil) &&
		s.Lit(`,"traces":[`)) {
		return upload{}, false
	}
	u.result.tracesAt = s.Offset()
	for !s.Lit("]") {
		if h.traces > 0 && !s.Lit(",") {
			return upload{}, false
		}
		if _, ok := s.Trace(); !ok {
			return upload{}, false
		}
		h.traces++
	}
	if !s.Lit(`,"servers":`) {
		return upload{}, false
	}
	if h.Servers, ok = s.Addrs(); !ok {
		return upload{}, false
	}
	tail, ok := s.Rest()
	if !ok || b.lim.N == 0 || !parseTail(tail, &h.ShardHeader) {
		return upload{}, false
	}
	return u, true
}

// parseTail reads the end of a scanned upload —
// `,"congestion":{…},"stats":{…}}}` or `,"stats":{…}}}` — decoding each
// value with encoding/json, which refuses anything but exactly one JSON
// value: so the split is the object's own, and the values are the ones
// the reflective decoder reads from the same bytes.
func parseTail(tail []byte, h *campaign.ShardHeader) bool {
	rest, ok := bytes.CutSuffix(tail, []byte("}}"))
	if !ok {
		return false
	}
	if cong, ok := bytes.CutPrefix(rest, []byte(`,"congestion":`)); ok {
		i := bytes.LastIndex(cong, []byte(`,"stats":`))
		if i < 0 || json.Unmarshal(cong[:i], &h.Congestion) != nil {
			return false
		}
		rest = cong[i:]
	}
	stats, ok := bytes.CutPrefix(rest, []byte(`,"stats":`))
	return ok && json.Unmarshal(stats, &h.Stats) == nil
}

// heldTraces positions b's scanner at the first trace of the held
// upload r, for the merge to splice from.
func (b *ingestBuf) heldTraces(r *heldResult) (*dataset.Scanner, error) {
	src, err := b.open(r.body, r.enc, maxResultBytes)
	if err == nil {
		b.scan.Reset(src)
		if !b.scan.Discard(r.tracesAt) {
			err = fmt.Errorf("body ends before its traces")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("server: merge: held result of shard (%d,%d): %w", r.shard, r.slice, err)
	}
	return &b.scan, nil
}
