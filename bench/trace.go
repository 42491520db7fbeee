package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch (the repetition's process
// start), so a trace file reads as one timeline.
type span struct {
	ID       uint64         `json:"id"`
	Parent   uint64         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Workload string         `json:"workload"`
	Start    int64          `json:"start_ns"`
	End      int64          `json:"end_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced repetition's spans in memory until the
// repetition ends. A nil *recorder is the untraced configuration:
// every method is a no-op, so workload code calls it unconditionally
// and the untraced repetitions carry no tracing work beyond a nil
// check.
type recorder struct {
	workload string
	epoch    time.Time
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// jobSpans maps a coordinator job ID to the bench.job span that
	// submitted it, so requests made on the job's behalf by workers
	// parent under it; requests that name no known job parent under
	// root, the bench.run span.
	jobSpans map[string]uint64
	root     uint64
}

func newRecorder(workload string, epoch time.Time) *recorder {
	return &recorder{workload: workload, epoch: epoch, jobSpans: make(map[string]uint64)}
}

// open is a started, not yet recorded span.
type open struct {
	r     *recorder
	id    uint64
	par   uint64
	name  string
	start time.Time
}

// start opens a span under parent (0 = top level).
func (r *recorder) start(name string, parent uint64) *open {
	if r == nil {
		return nil
	}
	return &open{r: r, id: r.nextID.Add(1), par: parent, name: name, start: time.Now()}
}

// spanID is the open span's id, 0 when untraced.
func (o *open) spanID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

// end records the span with optional key/value attributes.
func (o *open) end(attrs ...any) {
	if o == nil {
		return
	}
	o.r.add(o.id, o.par, o.name, o.start, time.Now(), attrs...)
}

// add records a finished span; attrs alternate key, value.
func (r *recorder) add(id, parent uint64, name string, start, end time.Time, attrs ...any) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.nextID.Add(1)
	}
	s := span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]any, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i].(string)] = attrs[i+1]
		}
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) bindJob(jobID string, spanID uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobSpans[jobID] = spanID
	r.mu.Unlock()
}

// startRoot opens the top-level bench.run span.
func (r *recorder) startRoot() *open {
	o := r.start(spanRun, 0)
	if r != nil {
		r.root = o.id
	}
	return o
}

// jobSpan is the span requests naming jobID parent under.
func (r *recorder) jobSpan(jobID string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.jobSpans[jobID]; ok {
		return id
	}
	return r.root
}

// snapshot returns the recorded spans ordered by start time.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- self time ------------------------------------------------------------

// covered returns how much of [lo, hi) the intervals cover; overlapping
// intervals (parallel shards, concurrent requests) count once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes maps span id → the span's duration minus the part of its
// interval its direct children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return self
}

// coveragePct is the share of the top-level span's wall clock that its
// child spans account for: what is left is time the trace cannot name.
func coveragePct(spans []span) float64 {
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == 0 && s.Name == spanRun && s.End > s.Start {
			return 100 * (1 - float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	return 0
}

// attributionRow is one span name's line of the attribution table.
type attributionRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// attribution groups spans by name, ordered by self time.
func attribution(spans []span) []attributionRow {
	self := selfTimes(spans)
	byName := make(map[string]*attributionRow)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &attributionRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.Total += s.dur()
		row.Self += self[s.ID]
	}
	rows := make([]attributionRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// printAttribution renders the per-workload table. Shares are of the
// traced wall clock; spans that run in parallel (shards on W workers,
// requests from several clients) can sum past 100 %.
func printAttribution(w io.Writer, workload string, spans []span) {
	var wall time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name == spanRun {
			wall = s.dur()
		}
	}
	fmt.Fprintf(w, "# trace %s: %d spans, traced wall %.3f s, coverage %.1f %%\n",
		workload, len(spans), wall.Seconds(), coveragePct(spans))
	fmt.Fprintf(w, "# %-28s %7s %10s %10s %8s\n", "span", "n", "total_s", "self_s", "self%")
	for _, row := range attribution(spans) {
		share := 0.0
		if wall > 0 {
			share = 100 * row.Self.Seconds() / wall.Seconds()
		}
		fmt.Fprintf(w, "# %-28s %7d %10.3f %10.3f %7.1f%%\n",
			row.Name, row.Count, row.Total.Seconds(), row.Self.Seconds(), share)
	}
}

// --- HTTP boundaries --------------------------------------------------------

// Span names the harness itself opens.
const (
	spanRun = "bench.run"
	spanJob = "bench.job"
)

// traceHeader carries the client span's id to the server-side wrapper,
// which records its span as that span's child.
const traceHeader = "X-Bench-Span"

var (
	jobPathRE   = regexp.MustCompile(`^/v1/jobs/([^/]+)(/.*)?$`)
	shardPathRE = regexp.MustCompile(`^/shards/(\d+)/(heartbeat|result)$`)
)

// routeOf reduces a request to the short route name spans and metrics
// are keyed by, plus the job ID and shard index the path names (empty
// and -1 when absent).
func routeOf(path string) (route, jobID string, shard int) {
	shard = -1
	switch {
	case path == "/v1/campaigns":
		return "submit", "", shard
	case path == "/v1/jobs":
		return "jobs", "", shard
	}
	m := jobPathRE.FindStringSubmatch(path)
	if m == nil {
		return strings.Trim(strings.TrimPrefix(path, "/v1/"), "/"), "", shard
	}
	jobID = m[1]
	switch rest := m[2]; rest {
	case "":
		return "job", jobID, shard
	case "/shards/claim":
		return "claim", jobID, shard
	case "/dataset":
		return "dataset_get", jobID, shard
	case "/shards", "/report", "/events":
		return strings.TrimPrefix(rest, "/"), jobID, shard
	default:
		if sm := shardPathRE.FindStringSubmatch(rest); sm != nil {
			shard, _ = strconv.Atoi(sm[1])
			return sm[2], jobID, shard
		}
		return "other", jobID, shard
	}
}

// callRecord is one finished client request as the RoundTripper saw it.
type callRecord struct {
	route  string
	jobID  string
	shard  int
	actor  string
	start  time.Time
	rtt    time.Duration
	status int
	spanID uint64
	// reqBytes is the request body as sent (after gzip, when used).
	// gzBody keeps a gzip'd upload's bytes until inflateUploads has
	// measured rawBytes, its uncompressed size.
	reqBytes int64
	gzBody   []byte
	rawBytes int64
}

// tracingTransport is the bench's http.RoundTripper: it times every
// client call, records an apiclient.<route> span and tags the request
// with the span id so the server-side wrapper can parent under it.
// Each actor (submitter, each worker) gets its own, so calls carry the
// actor's name.
type tracingTransport struct {
	base  http.RoundTripper
	rec   *recorder
	actor string
	calls *callLog
}

// callLog collects call records across the actors of one repetition.
type callLog struct {
	mu    sync.Mutex
	calls []callRecord
}

func (l *callLog) add(c callRecord) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []callRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]callRecord(nil), l.calls...)
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route, jobID, shard := routeOf(req.URL.Path)
	call := callRecord{route: route, jobID: jobID, shard: shard, actor: t.actor,
		reqBytes: req.ContentLength}
	if route == "result" && req.Header.Get("Content-Encoding") == "gzip" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			call.gzBody, _ = io.ReadAll(body)
		}
	}
	o := t.rec.start("apiclient."+route, t.rec.jobSpan(jobID))
	call.start, call.spanID = o.start, o.id
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatUint(o.id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		o.end("actor", t.actor, "status", "transport_error")
		call.rtt = time.Since(o.start)
		t.calls.add(call)
		return nil, err
	}
	// The round trip ends when the body has been read: the dataset
	// fetch streams tens of megabytes after the headers arrive.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		attrs := []any{"actor", t.actor, "status", resp.StatusCode}
		if jobID != "" {
			attrs = append(attrs, "job", jobID)
		}
		if shard >= 0 {
			attrs = append(attrs, "shard", shard)
		}
		if req.ContentLength > 0 {
			attrs = append(attrs, "bytes", req.ContentLength)
		}
		o.end(attrs...)
		call.rtt, call.status = time.Since(o.start), resp.StatusCode
		t.calls.add(call)
	}}
	return resp, nil
}

// timedBody fires done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serverCall is one request as the handler wrapper saw it.
type serverCall struct {
	route  string
	dur    time.Duration
	parent uint64
}

// tracingHandler wraps the coordinator's handler: per-route server
// time, recorded as a server.<route> span under the client span named
// in the trace header.
type tracingHandler struct {
	next http.Handler
	rec  *recorder

	mu    sync.Mutex
	calls []serverCall
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, _, _ := routeOf(r.URL.Path)
	parent, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.rec.add(0, parent, "server."+route, start, end)
	h.mu.Lock()
	h.calls = append(h.calls, serverCall{route: route, dur: end.Sub(start), parent: parent})
	h.mu.Unlock()
}

func (h *tracingHandler) snapshot() []serverCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]serverCall(nil), h.calls...)
}
