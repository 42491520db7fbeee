package apiclient_test

// Error-classification unit tests: the transient/terminal split that
// drives worker retries, and the Retry-After extraction that paces
// them.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/apiclient"
)

func TestIsTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&apiclient.APIError{Status: 500, Code: "internal"}, true},
		{&apiclient.APIError{Status: 503, Code: "unavailable"}, true},
		{&apiclient.APIError{Status: 429, Code: "overloaded"}, true},
		{&apiclient.APIError{Status: 409, Code: "lease_expired"}, false},
		{&apiclient.APIError{Status: 400, Code: "spec_invalid"}, false},
		{&apiclient.APIError{Status: 404, Code: "job_not_found"}, false},
		{fmt.Errorf("dial tcp: connection refused"), true}, // network error, no APIError
		{nil, false},
	} {
		if got := apiclient.IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	wrapped := fmt.Errorf("claim: %w", &apiclient.APIError{Status: 429, Code: "overloaded", RetryAfter: 7})
	if got := apiclient.RetryAfter(wrapped); got != 7*time.Second {
		t.Errorf("RetryAfter(wrapped 429) = %v, want 7s", got)
	}
	if got := apiclient.RetryAfter(&apiclient.APIError{Status: 503}); got != 0 {
		t.Errorf("RetryAfter(no hint) = %v, want 0", got)
	}
	if got := apiclient.RetryAfter(errors.New("plain")); got != 0 {
		t.Errorf("RetryAfter(plain error) = %v, want 0", got)
	}
}
