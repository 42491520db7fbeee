package server

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/apiclient"
)

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
	resp := apiclient.Health{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		VCSRevision:   vcsRev,
		VCSTime:       vcsTime,
		UptimeSeconds: time.Since(s.start).Seconds(),
		StoreDir:      filepath.Clean(s.dataDir),
		StoreWritable: storeWritable(s.dataDir),
		CachedRuns:    s.store.Len(),
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
