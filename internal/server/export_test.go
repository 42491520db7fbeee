package server

import (
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/packet"
)

// Counter lends the /v1/metrics reader (server_test.go) to the
// external test package.
var Counter = counter

// SetAdmissionWatermark lowers the submit shedding watermark, the
// constant maxOpenShards, for a test that drives a coordinator past it.
func SetAdmissionWatermark(srv *Server, n int) {
	srv.mgr.mu.Lock()
	defer srv.mgr.mu.Unlock()
	srv.mgr.watermark = n
}

// SetMaxResultBytes lowers the upload and journal-replay size bound
// for tests that pin it — inflating a real 256 MiB bomb costs seconds
// and a gigabyte — and returns the func that restores it.
func SetMaxResultBytes(n int64) (restore func()) {
	old := maxResultBytes
	maxResultBytes = n
	return func() { maxResultBytes = old }
}

// HeldResultBytes is what job id keeps of its accepted shard results
// until the merge: each shard's fixed-size record, spec hash and CE-mark
// sample, the bytes of each held upload, each distinct server list once,
// and each decoded wire's traces.
func HeldResultBytes(srv *Server, id string) int {
	m := srv.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	lists := make(map[*packet.Addr]bool)
	for i := range m.jobs[id].results {
		r := &m.jobs[id].results[i]
		n += int(unsafe.Sizeof(*r)) + len(r.specHash) + cap(r.body)
		if r.Congestion != nil {
			n += int(unsafe.Sizeof(*r.Congestion))
		}
		if len(r.Servers) > 0 && !lists[&r.Servers[0]] {
			lists[&r.Servers[0]] = true
			n += cap(r.Servers) * int(unsafe.Sizeof(packet.Addr{}))
		}
		if r.wire != nil {
			for _, t := range r.wire.Traces {
				n += int(unsafe.Sizeof(t)) + len(t.Vantage) + cap(t.Observations)*int(unsafe.Sizeof(dataset.Observation{}))
			}
		}
	}
	return n
}
