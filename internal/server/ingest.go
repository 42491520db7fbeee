package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/apiclient"
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
// An upload is not decoded, and it has exactly one form: the gzip'd
// bytes apiclient writes (the bytes json.Marshal gives the request),
// which differ from the dataset lines they will become only in each
// trace's index. The accept path scans it — inflating a window at a
// time, checking each trace with the trace decoder's own grammar in its
// count-only form, decoding only the few hundred bytes of header — and
// the job keeps the compressed body the journal holds anyway. The merge
// splices its traces into the store (jobMgr.writeDataset). A body in
// any other form — not gzip, not canonical, a worker ID the scan cannot
// read — is refused with a 400, live and on journal replay alike; what
// the scan accepts, encoding/json reads the same way
// (FuzzShardResultDecode).
//
// Ownership (DESIGN.md §13.2): an ingestBuf belongs to one request —
// or one journal replay, or one merge — from ingestPool.get to put, and
// put happens only after everything that reads the raw body has
// returned: for an upload that includes the journal append inside
// jobMgr.ShardResult, which writes those bytes to disk verbatim, and
// the copy of them the accepted shard keeps. Nothing else read out of a
// buffer aliases it: the scanned header is copied out (strings,
// exactly-sized server list, encoding/json's congestion and stats).
// FuzzShardResultDecode scribbles over the buffers to hold it to that.

// bodyHintBytes caps how much a Content-Length may reserve up front.
// The header is the client's claim, not bytes received: past the hint
// the buffer grows only as the body actually arrives.
const bodyHintBytes = 1 << 20

// ingestBuf is one request's read-and-scan scratch.
type ingestBuf struct {
	body bytes.Buffer     // the request body as it arrived
	src  bytes.Reader     // feeds zr
	zr   *gzip.Reader     // nil until the first upload
	lim  io.LimitedReader // the byte budget over what a scan inflates
	scan dataset.Scanner  // reads an upload a trace at a time
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
	if b.scan.Cap() > freelist.RetainBytes {
		b.scan = dataset.Scanner{}
	}
	b.scan.Reset(nil)
	b.lim.R = nil
	b.src.Reset(nil) // do not pin the last body read (a journal's or a held one is not ours)
	p.list.Put(b)
}

// readBody reads a bounded request body exactly as it arrived — still
// compressed, for an upload. The result is valid until b is reused.
func (b *ingestBuf) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	b.body.Reset()
	if hint := min(r.ContentLength, limit, bodyHintBytes); hint > 0 {
		// MinRead more, or ReadFrom doubles the buffer just to see EOF.
		b.body.Grow(int(hint) + bytes.MinRead)
	}
	if _, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "read body: %v", err)
	}
	return b.body.Bytes(), nil
}

// open returns the inflation of the gzip body raw through b's reused
// gzip reader. At most limit+1 bytes are inflated; b.lim.N == 0
// afterwards means the body is over the limit, so a compression bomb is
// a 400, not an allocation.
func (b *ingestBuf) open(raw []byte, limit int64) (io.Reader, error) {
	b.src.Reset(raw)
	if b.zr == nil {
		b.zr = new(gzip.Reader)
	}
	if err := b.zr.Reset(&b.src); err != nil {
		return nil, faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "gzip body: %v", err)
	}
	b.lim = io.LimitedReader{R: b.zr, N: limit + 1}
	return &b.lim, nil
}

// decodeBody reads and unmarshals a bounded plain-JSON request body — a
// claim or a heartbeat — into v.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	b := s.mgr.ingest.get()
	defer s.mgr.ingest.put(b)
	raw, err := b.readBody(w, r, limit)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return faultf(http.StatusBadRequest, apiclient.CodeBadRequest, "parse body: %v", err)
	}
	return nil
}

// upload is a shard-result request body as the accept path reads it.
type upload struct {
	worker, lease string
	result        heldResult
}

// acceptUpload scans the gzip'd shard-result body raw as exactly the
// bytes apiclient writes for a result upload —
//
//	{"worker":…,"lease":…,"result":{"v":…,"spec_hash":…,"shard":…,"slice":…,
//	 "vantage":…,"traces":[…],"servers":[…],"congestion":{…},"stats":{…}}}
//
// with plain strings, canonical integers and traces, and nothing after
// — and refuses anything else with a 400. The traces are checked and
// counted, not kept; tracesAt records where they start, and the caller
// attaches the body. The HTTP handler and journal replay both read
// uploads through it.
func (b *ingestBuf) acceptUpload(raw []byte, limit int64) (u upload, err error) {
	r, err := b.open(raw, limit)
	if err != nil {
		return upload{}, err
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
	ok := s.Lit(`{"worker":`) && str(&u.worker) &&
		s.Lit(`,"lease":`) && str(&u.lease) &&
		s.Lit(`,"result":{"v":`) && num(&h.version) &&
		s.Lit(`,"spec_hash":`) && str(&h.specHash) &&
		s.Lit(`,"shard":`) && num(&h.shard) &&
		s.Lit(`,"slice":`) && num(&h.slice) &&
		s.Lit(`,"vantage":`) && str(nil) &&
		s.Lit(`,"traces":[`)
	u.result.tracesAt = s.Offset()
	for ok && !s.Lit("]") {
		if h.traces > 0 && !s.Lit(",") {
			ok = false
		} else if _, ok = s.Trace(); ok {
			h.traces++
		}
	}
	if ok = ok && s.Lit(`,"servers":`); ok {
		h.Servers, ok = s.Addrs()
	}
	var tail []byte
	if ok {
		tail, ok = s.Rest()
	}
	switch {
	case b.lim.N == 0:
		return upload{}, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"inflated body exceeds the %d-byte limit", limit)
	case !ok || !parseTail(tail, &h.ShardHeader):
		return upload{}, faultf(http.StatusBadRequest, apiclient.CodeBadRequest,
			"body is not a canonical gzip'd shard-result upload (at inflated byte %d)", s.Offset())
	}
	return u, nil
}

// parseTail reads the end of a scanned upload —
// `,"congestion":{…},"stats":{…}}}` or `,"stats":{…}}}` — decoding each
// value with encoding/json, which refuses anything but exactly one JSON
// value: so the split is the object's own, and the values are the ones
// encoding/json reads from the whole body.
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
	src, err := b.open(r.body, maxResultBytes)
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
