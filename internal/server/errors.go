package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/apiclient"
	"repro/internal/campaign"
)

// Every v1 error response shares one envelope, apiclient.ErrorEnvelope,
// whose code is one of apiclient's stable Code* constants — the
// machine-readable contract a client branches on — while the message is
// advisory prose that may change between releases. Validation errors
// additionally carry the offending spec fields so a client can fix a
// submission in one round trip.

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
		writeJSON(w, f.status, apiclient.ErrorEnvelope{Error: apiclient.APIError{
			Code: f.code, Message: f.msg, Fields: f.fields,
		}})
		return
	}
	var verr *campaign.ValidationError
	if errors.As(err, &verr) {
		writeJSON(w, http.StatusBadRequest, apiclient.ErrorEnvelope{Error: apiclient.APIError{
			Code: apiclient.CodeSpecInvalid, Message: verr.Error(), Fields: verr.Fields,
		}})
		return
	}
	writeJSON(w, http.StatusInternalServerError, apiclient.ErrorEnvelope{Error: apiclient.APIError{
		Code: apiclient.CodeInternal, Message: err.Error(),
	}})
}
