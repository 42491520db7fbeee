package apiclient

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/freelist"
)

// Shard-result uploads are the one large thing a worker sends: ≈ 2 MB
// of JSON at paper scale, ≈ 100 KB once gzipped. The JSON never exists
// whole: the dataset package's trace encoder assembles it by hand a
// 64 KB chunk at a time and each chunk goes straight into the gzip
// stream. Chunk, deflate state (≈ 1 MB) and body buffer are state the
// client keeps between uploads; the payload is encoded once and every
// attempt resends the same bytes.
//
// Ownership: an uploadEncoder belongs to exactly one ShardUpload from
// PrepareShardResult until Release, and to the client's free list
// (freelist.List, shared with the coordinator's request scratch) in
// between. Release hands it back only when no request body built over
// its buffer can still be read by the transport (see sentBody) and its
// body buffer is within freelist.RetainBytes; otherwise it is left to
// the garbage collector.

// uploadEncoder is one upload's encoding state, reused via Reset.
type uploadEncoder struct {
	buf bytes.Buffer    // the request body
	zw  *gzip.Writer    // writes into buf; nil until the first gzip upload
	enc dataset.Encoder // writes into zw or buf; owns the one chunk of JSON scratch
}

// putEncoder returns e to the client's free list unless its body buffer
// grew past the retention cap.
func (c *Client) putEncoder(e *uploadEncoder) {
	if e.buf.Cap() <= freelist.RetainBytes {
		c.encoders.Put(e)
	}
}

// encode builds the request body of one result upload in e.buf —
// {"worker":…,"lease":…,"result":…}, the bytes json.Marshal gives the
// route's request struct (TestUploadBodyMatchesMarshal: coordinators
// journal upload bodies verbatim and the benchmark counts their
// bytes) — gzipped at the default level when compress is set. The JSON
// is never assembled: it goes a chunk at a time from e.enc's scratch
// into the stream.
func (e *uploadEncoder) encode(worker, lease string, res *campaign.ShardResultWire, compress bool) error {
	e.buf.Reset()
	var w io.Writer = &e.buf
	if compress {
		if e.zw == nil {
			e.zw = gzip.NewWriter(&e.buf)
		} else {
			e.zw.Reset(&e.buf)
		}
		w = e.zw
	}
	e.enc.Reset(w)
	e.enc.Raw(`{"worker":`)
	e.enc.String(worker)
	e.enc.Raw(`,"lease":`)
	e.enc.String(lease)
	e.enc.Raw(`,"result":`)
	res.EncodeJSON(&e.enc)
	e.enc.Raw("}")
	if err := e.enc.Flush(); err != nil {
		return err
	}
	if compress {
		return e.zw.Close()
	}
	return nil
}

// ShardUpload is one shard result encoded for the wire: prepared once,
// sent as many times as delivery takes — every attempt carries the same
// bytes — and released when the caller is done with it. It is not safe
// for concurrent use.
type ShardUpload struct {
	c        *Client
	path     string
	encoding string // Content-Encoding; empty for a plain upload
	enc      *uploadEncoder
	// unread counts request bodies over enc.buf that were handed out and
	// have been neither drained nor closed yet.
	unread atomic.Int32
}

// PrepareShardResult encodes one executed shard's upload under its
// lease. The caller must Release the result.
func (c *Client) PrepareShardResult(jobID string, index int, worker, lease string, res *campaign.ShardResultWire) (*ShardUpload, error) {
	u := &ShardUpload{
		c:    c,
		path: fmt.Sprintf("/v1/jobs/%s/shards/%d/result", url.PathEscape(jobID), index),
		enc:  c.encoders.Get(),
	}
	if !c.plainUploads {
		u.encoding = "gzip"
	}
	if err := u.enc.encode(worker, lease, res, !c.plainUploads); err != nil {
		// The half-written encoder is not worth keeping: it goes with u.
		return nil, fmt.Errorf("api: encode shard result: %w", err)
	}
	return u, nil
}

// Send posts the prepared body and returns the coordinator's ack.
func (u *ShardUpload) Send(ctx context.Context) (ResultAck, error) {
	req, cancel, err := u.c.newRequest(ctx, http.MethodPost, u.path, nil)
	if err != nil {
		return ResultAck{}, err
	}
	defer cancel()
	body := u.enc.buf.Bytes()
	req.Body = u.newBody(body)
	req.ContentLength = int64(len(body))
	// The transport rewinds through GetBody when it retries on a
	// connection the server had already closed.
	req.GetBody = func() (io.ReadCloser, error) { return u.newBody(body), nil }
	req.Header.Set("Content-Type", "application/json")
	if u.encoding != "" {
		req.Header.Set("Content-Encoding", u.encoding)
	}
	var ack ResultAck
	_, err = u.c.exchange(req, &ack)
	return ack, err
}

// Release ends the upload's use of its encoder. The encoder returns to
// the client's free list unless a request body over its buffer is still
// unread — net/http may close a body from its own goroutine after the
// exchange has returned (an early error reply, a timed-out attempt) —
// in which case the buffer must not be overwritten and is dropped.
func (u *ShardUpload) Release() {
	e := u.enc
	u.enc = nil
	if e != nil && u.unread.Load() == 0 {
		u.c.putEncoder(e)
	}
}

// sentBody is one request body over an upload's buffer. It counts
// itself out of ShardUpload.unread at the first of end-of-data or
// Close, and reads nothing afterwards: net/http may Close a body from
// one goroutine while another is still inside Read, so the two are
// serialized and a Read that loses the race touches no bytes.
type sentBody struct {
	u *ShardUpload

	mu   sync.Mutex
	r    bytes.Reader
	done bool
}

func (u *ShardUpload) newBody(data []byte) *sentBody {
	u.unread.Add(1)
	b := &sentBody{u: u}
	b.r.Reset(data)
	return b
}

// finish marks the body unreadable; callers hold b.mu.
func (b *sentBody) finish() {
	if !b.done {
		b.done = true
		b.u.unread.Add(-1)
	}
}

func (b *sentBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return 0, io.EOF
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *sentBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.finish()
	return nil
}
