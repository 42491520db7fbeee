package server

import (
	"io"
	"log/slog"
	"net/http"
	"time"
)

// statusRecorder captures the response status for logging and metrics.
// Handlers that never call WriteHeader implicitly send 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ReadFrom hands src to the underlying writer's ReadFrom — net/http's
// copies through a pooled buffer, and sends an *os.File with sendfile —
// which a plain embedding would hide. Without it an io.Copy through the
// recorder allocates a 32 KB buffer per response.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(r.ResponseWriter, src)
}

func codeClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// instrument wraps one route's handler with the observability
// middleware: request counter and latency histogram labelled by the
// route pattern (captured here at registration — the mux's match isn't
// visible to an outer wrapper), and one structured log line per
// request carrying method, path, status, duration and — on job routes —
// the job id, so a job's requests grep together across the log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.httpInflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.httpInflight.Add(-1)

		reqs, lat := s.metrics.requestInstruments(route, codeClass(rec.status))
		reqs.Inc()
		lat.Observe(elapsed.Seconds())

		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
		}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, slog.String("job", id))
		}
		level := slog.LevelInfo
		if rec.status >= 500 {
			level = slog.LevelError
		}
		s.logger.LogAttrs(r.Context(), level, "request", attrs...)
	}
}
