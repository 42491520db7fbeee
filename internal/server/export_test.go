package server

// Counter lends the /v1/metrics.json reader (server_test.go) to the
// external test package.
var Counter = counter

// SetMaxResultBytes lowers the upload and journal-replay size bound
// for tests that pin it — inflating a real 256 MiB bomb costs seconds
// and a gigabyte — and returns the func that restores it.
func SetMaxResultBytes(n int64) (restore func()) {
	old := maxResultBytes
	maxResultBytes = n
	return func() { maxResultBytes = old }
}

// IngestSlots is the request-buffer free list's size: the concurrent
// upload test runs more uploaders than this.
const IngestSlots = ingestSlots
