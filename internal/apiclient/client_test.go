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
		{&apiclient.APIError{Status: 500, Code: apiclient.CodeInternal}, true},
		{&apiclient.APIError{Status: 503, Code: apiclient.CodeUnavailable}, true},
		{&apiclient.APIError{Status: 429, Code: apiclient.CodeOverloaded}, true},
		{&apiclient.APIError{Status: 409, Code: apiclient.CodeLeaseExpired}, false},
		{&apiclient.APIError{Status: 400, Code: apiclient.CodeSpecInvalid}, false},
		{&apiclient.APIError{Status: 404, Code: apiclient.CodeJobNotFound}, false},
		{fmt.Errorf("dial tcp: connection refused"), true}, // network error, no APIError
		{nil, false},
	} {
		if got := apiclient.IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	wrapped := fmt.Errorf("claim: %w", &apiclient.APIError{Status: 429, Code: apiclient.CodeOverloaded, RetryAfter: 7})
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
