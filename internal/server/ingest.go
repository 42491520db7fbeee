package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Request-body ingest. A shard-result upload is the coordinator's one
// large input — ≈ 100 KB of gzip inflating to ≈ 2.1 MB of JSON at paper
// scale — and it is read, inflated and parsed through scratch the
// server owns and reuses, instead of an io.ReadAll and an inflate-by-
// doubling per request.
//
// Ownership (DESIGN.md §13.2): an ingestBuf belongs to one request from
// ingestPool.get to put, and put happens only after everything that
// reads the raw body has returned — for an upload that includes the
// journal append inside jobMgr.ShardResult, which writes those bytes to
// disk verbatim. Values decoded out of a buffer never alias it, so the
// wire kept in job.wires outlives the buffer safely: encoding/json
// copies every string, []byte and RawMessage it produces, and
// dataset.(*Trace).UnmarshalJSON — which it calls for each trace, the
// bulk of an upload — copies the vantage name and parses everything
// else into values. FuzzShardResultDecode scribbles over the buffers to
// hold both to that.

const (
	// ingestSlots bounds the free list; requests beyond it allocate and
	// their buffers are dropped on return.
	ingestSlots = 4
	// ingestRetainBytes is the largest buffer put keeps. maxResultBytes
	// admits 256 MiB bodies; one of those must not stay resident for the
	// life of the coordinator.
	ingestRetainBytes = 8 << 20
	// bodyHintBytes caps how much a Content-Length may reserve up front.
	// The header is the client's claim, not bytes received: past the
	// hint the buffer grows only as the body actually arrives.
	bodyHintBytes = 1 << 20
)

// ingestBuf is one request's read-and-decode scratch.
type ingestBuf struct {
	body     bytes.Buffer // the request body as it arrived
	inflated bytes.Buffer // a gzip body's inflated form
	src      bytes.Reader // feeds zr
	zr       *gzip.Reader // nil until the first gzip body
}

// ingestPool is a bounded free list — a mutex and a slice, not a
// sync.Pool, whose per-GC-cycle emptying would tie what an upload
// allocates to collector timing. apiclient's encoderList is the same
// twenty lines on the sending side, duplicated on purpose rather than
// shared through a package that would hold nothing else; the slot count
// and retention cap of both are in DESIGN.md §13.2's table and change
// together.
type ingestPool struct {
	mu   sync.Mutex
	free []*ingestBuf
}

func (p *ingestPool) get() *ingestBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &ingestBuf{}
}

func (p *ingestPool) put(b *ingestBuf) {
	if b.body.Cap() > ingestRetainBytes {
		b.body = bytes.Buffer{}
	}
	if b.inflated.Cap() > ingestRetainBytes {
		b.inflated = bytes.Buffer{}
	}
	b.src.Reset(nil) // do not pin the last body decoded (journal replay's is not ours)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < ingestSlots {
		p.free = append(p.free, b)
	}
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

// decodeJSON unmarshals a JSON body into v, classifying failures as
// bad_request faults. An encGzip body is inflated first (net/http does
// not decompress request bodies); the byte budget applies to the
// inflated stream — at most limit+1 bytes are ever inflated — so a
// compression bomb is a 400, not an allocation; the inflate buffer is
// reserved once up front (inflateHint). Journal replay decodes stored
// upload bodies through here too. raw may be b's own body.
func (b *ingestBuf) decodeJSON(raw []byte, enc string, limit int64, v any) error {
	body := raw
	if enc == encGzip {
		b.src.Reset(raw)
		if b.zr == nil {
			b.zr = new(gzip.Reader)
		}
		if err := b.zr.Reset(&b.src); err != nil {
			return faultf(http.StatusBadRequest, codeBadRequest, "gzip body: %v", err)
		}
		b.inflated.Reset()
		b.inflated.Grow(inflateHint(raw, limit))
		if _, err := b.inflated.ReadFrom(io.LimitReader(b.zr, limit+1)); err != nil {
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
	b := s.ingest.get()
	defer s.ingest.put(b)
	raw, err := b.readBody(w, r, limit)
	if err != nil {
		return err
	}
	return b.decodeJSON(raw, bodyEncoding(r), limit, v)
}
