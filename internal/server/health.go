package server

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// healthResponse is GET /v1/healthz's body: a readiness probe rather
// than a bare liveness ping. Status is "ok" (200) when the store is
// writable and the job queue has headroom, "degraded" (503) otherwise —
// so a load balancer can drain a node whose disk went read-only or
// whose queue is saturated before submissions start failing.
type healthResponse struct {
	Status        string  `json:"status"`
	Draining      bool    `json:"draining,omitempty"`
	Version       string  `json:"version,omitempty"`
	GoVersion     string  `json:"go_version,omitempty"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	StoreDir      string `json:"store_dir"`
	StoreWritable bool   `json:"store_writable"`
	CachedRuns    int    `json:"cached_runs"`

	QueueDepth  int `json:"queue_depth"`
	QueueCap    int `json:"queue_cap"`
	JobsRunning int `json:"jobs_running"`
}

// buildVersion reads the binary's module version and VCS stamp; all
// fields degrade to empty outside a module build (e.g. plain go test).
func buildVersion() (version, goVersion, vcsRev, vcsTime string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	version, goVersion = bi.Main.Version, bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			vcsRev = s.Value
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	return
}

// storeWritable probes the data directory with a create+remove round
// trip — the same operation Store.Put's temp-and-rename relies on.
func storeWritable(dir string) bool {
	f, err := os.CreateTemp(dir, ".healthz-*")
	if err != nil {
		return false
	}
	name := f.Name()
	f.Close()
	return os.Remove(name) == nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	version, goVersion, vcsRev, vcsTime := buildVersion()
	queued, draining := s.mgr.Health()
	resp := healthResponse{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		VCSRevision:   vcsRev,
		VCSTime:       vcsTime,
		UptimeSeconds: time.Since(s.start).Seconds(),
		StoreDir:      filepath.Clean(s.dataDir),
		StoreWritable: storeWritable(s.dataDir),
		CachedRuns:    len(s.store.Keys()),
		QueueDepth:    queued,
		QueueCap:      maxQueuedJobs,
		JobsRunning:   int(s.metrics.jobsRunning.Value()),
	}
	status := http.StatusOK
	if !resp.StoreWritable || resp.QueueDepth >= maxQueuedJobs {
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	if draining {
		// Draining is deliberate unreadiness: load balancers stop
		// routing, workers back off, in-flight uploads still land.
		resp.Status = "draining"
		resp.Draining = true
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
