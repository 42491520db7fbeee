// Package chaos is an in-process fault-injecting HTTP proxy for the
// worker↔coordinator path. Tests park it between an apiclient and a
// real coordinator to exercise the worker's retry/backoff machinery
// against the failures it exists for: dropped connections, long
// delays, and duplicated requests (the "ambiguous failure" where a
// request executes but its response is lost, forcing an idempotent
// re-send).
//
// Faults fire on deterministic request counters, not randomness —
// "drop every 3rd request" reproduces exactly, run after run, which is
// what a determinism-obsessed test suite wants from its chaos.
//
// It is test support, like workertest beside it: imported only from
// _test.go files (the end-to-end test's chaos row and the worker's
// chaos tests), never by a program.
package chaos

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards requests to Target, injecting faults by request
// count. The zero fault configuration forwards everything untouched.
type Proxy struct {
	// Target is the coordinator base URL the proxy forwards to.
	Target *url.URL

	// DropEvery > 0 severs every Nth request (counting from 1) without
	// forwarding it: the client sees a closed connection, never a
	// response — a transient network error by the worker's taxonomy.
	DropEvery int
	// DelayEvery > 0 sleeps Delay before forwarding every Nth request,
	// simulating a slow network or overloaded coordinator; long enough
	// delays trip the client's per-request timeout.
	DelayEvery int
	Delay      time.Duration
	// DupEvery > 0 forwards every Nth request twice, back to back, and
	// returns the FIRST response. The coordinator sees the retry of an
	// already-applied request; the dedup/doneToken path must absorb it.
	// Only effective for requests with replayable bodies (the proxy
	// buffers them), which covers the whole JSON API.
	DupEvery int

	count atomic.Int64

	initOnce sync.Once
	rp       *httputil.ReverseProxy
}

func (p *Proxy) init() {
	p.initOnce.Do(func() {
		p.rp = &httputil.ReverseProxy{
			Rewrite: func(r *httputil.ProxyRequest) {
				r.SetURL(p.Target)
			},
		}
	})
}

// nth reports whether the 1-based request number n lands on the every
// cycle; every <= 0 disables the fault.
func nth(n int64, every int) bool {
	return every > 0 && n%int64(every) == 0
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.init()
	n := p.count.Add(1)

	if nth(n, p.DropEvery) {
		// Sever the connection so the client gets a transport error,
		// not an HTTP status. Fall back to a bare 502 on transports
		// that cannot hijack (HTTP/2); httptest's default is HTTP/1.1.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusBadGateway)
		return
	}

	if nth(n, p.DelayEvery) && p.Delay > 0 {
		select {
		case <-time.After(p.Delay):
		case <-r.Context().Done():
			return
		}
	}

	if nth(n, p.DupEvery) && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		// Shadow send first: the coordinator applies the request once,
		// then sees our "retry". The client only ever hears the shadow
		// response below if we surfaced it — it doesn't; it gets the
		// second (duplicate-disposition) response, which is exactly the
		// ambiguous-failure shape: applied once, acked as duplicate.
		shadow := r.Clone(r.Context())
		shadow.Body = io.NopCloser(bytes.NewReader(body))
		shadow.ContentLength = int64(len(body))
		rec := &discardResponseWriter{header: make(http.Header)}
		p.rp.ServeHTTP(rec, shadow)

		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}

	p.rp.ServeHTTP(w, r)
}

// Requests returns how many requests the proxy has seen.
func (p *Proxy) Requests() int64 { return p.count.Load() }

// discardResponseWriter swallows the shadow request's response.
type discardResponseWriter struct {
	header http.Header
}

func (d *discardResponseWriter) Header() http.Header         { return d.header }
func (d *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}
