package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/campaign"
)

// Every v1 error response shares one envelope:
//
//	{"error": {"code": "...", "message": "...", "fields": [...]}}
//
// The code is the machine-readable contract — stable strings a client
// branches on — while the message is advisory prose that may change
// between releases. Validation errors additionally carry the offending
// spec fields so a client can fix a submission in one round trip. The
// full code table lives in DESIGN.md §13.

// The stable v1 error codes.
const (
	codeBadRequest        = "bad_request"         // malformed body, unparseable parameter
	codeSpecInvalid       = "spec_invalid"        // spec failed validation; fields populated
	codeJobNotFound       = "job_not_found"       // unknown job ID
	codeRunNotFound       = "run_not_found"       // a done job whose run is gone from the store
	codeShardNotFound     = "shard_not_found"     // shard index outside the job's plan
	codeJobNotDone        = "job_not_done"        // artifacts requested before completion
	codeJobFailed         = "job_failed"          // artifacts requested from a failed job
	codeJobNotDistributed = "job_not_distributed" // remote-worker call against a local job
	codeLeaseExpired      = "lease_expired"       // heartbeat on a lapsed or superseded lease
	codeStaleResult       = "stale_result"        // upload under an evicted lease or wrong spec hash
	codeResultInvalid     = "result_invalid"      // upload payload inconsistent with the claimed shard
	codeCursorInvalid     = "cursor_invalid"      // pagination cursor does not resolve
	codeQueueFull         = "queue_full"          // job queue at capacity
	codeUnavailable       = "unavailable"         // shutting down
	codeOverloaded        = "overloaded"          // submission shed: open work past the admission watermark
	codeInternal          = "internal"            // unclassified server-side failure
)

// ErrorDetail is the envelope's payload.
type ErrorDetail struct {
	Code    string                `json:"code"`
	Message string                `json:"message"`
	Fields  []campaign.FieldError `json:"fields,omitempty"`
}

// ErrorBody is the uniform v1 error response body.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// apiFault is an error that knows its HTTP status and stable code; it
// crosses the job-manager/handler boundary so lease and pagination
// logic can classify failures where they are detected.
type apiFault struct {
	status int
	code   string
	msg    string
	fields []campaign.FieldError
	// retryAfter, when positive, is emitted as a Retry-After header (in
	// seconds) — the server telling well-behaved workers how long to
	// back off before re-sending (drain, queue_full).
	retryAfter int
}

func (f *apiFault) Error() string { return f.msg }

// faultf builds an apiFault with a formatted message.
func faultf(status int, code, format string, args ...any) *apiFault {
	return &apiFault{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// faultRetryf builds an apiFault that advertises a Retry-After hint.
func faultRetryf(status int, code string, retryAfter int, format string, args ...any) *apiFault {
	f := faultf(status, code, format, args...)
	f.retryAfter = retryAfter
	return f
}

// writeFault renders any error in the unified envelope: apiFaults
// carry their own status and code, spec validation failures are 400
// spec_invalid with field detail, and anything unclassified is a 500.
func writeFault(w http.ResponseWriter, err error) {
	var f *apiFault
	if errors.As(err, &f) {
		if f.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
		}
		writeJSON(w, f.status, ErrorBody{Error: ErrorDetail{
			Code: f.code, Message: f.msg, Fields: f.fields,
		}})
		return
	}
	var verr *campaign.ValidationError
	if errors.As(err, &verr) {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: ErrorDetail{
			Code: codeSpecInvalid, Message: verr.Error(), Fields: verr.Fields,
		}})
		return
	}
	writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: ErrorDetail{
		Code: codeInternal, Message: err.Error(),
	}})
}
