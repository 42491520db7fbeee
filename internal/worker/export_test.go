package worker

import "time"

// SetBackoff shortens the retry schedule's base and ceiling for tests
// that drive many transient failures, and returns the func that
// restores them. The retry count stays maxRetries.
func SetBackoff(base, ceil time.Duration) (restore func()) {
	oldBase, oldCap := retryBase, retryCap
	retryBase, retryCap = base, ceil
	return func() { retryBase, retryCap = oldBase, oldCap }
}
