package main

// reprod serve: the long-lived coordinator. Clients POST a campaign
// spec to /v1/campaigns, poll the async job it becomes, and fetch the
// merged dataset plus a run report. Completed runs are cached on disk
// content-addressed by the spec's canonical form, so resubmitting a
// spec — from any client, with any execution shape — is served
// instantly without re-simulating. Every job's shards are leased from
// one table: a local spec's by the coordinator's own loopback workers
// (one per CPU), an "execution": "distributed" spec's by reprod worker
// processes.
//
// Straggler speculation and submit shedding have no flags: a shard
// straggling past three typical shard durations is raced by a
// speculative twin, and submissions past 4096 open shards are shed
// with 429 overloaded.
//
// The daemon carries its own flight recorder: GET /v1/metrics exposes
// allocation-free engine, HTTP, and lease metrics in the Prometheus
// text format, GET /v1/jobs/{id}/events replays a job's lifecycle from
// the flight recorder's event ring, and -pprof mounts net/http/pprof
// under /debug/pprof/.
//
// The "serving" log record carries the address actually bound, so
// -addr 127.0.0.1:0 picks a free port. SIGINT/SIGTERM drain gracefully:
// open local jobs finish and are cached before exit.

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("reprod serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8070", "HTTP listen address")
		data      = fs.String("data", "reprod-data", "result-store data directory")
		leaseTTL  = fs.Duration("lease-ttl", 30*time.Second, "worker shard-lease TTL")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drainFor  = fs.Duration("drain", 30*time.Second, "graceful-shutdown window for in-flight work")
	)
	fs.Parse(args)

	logger := newLogger("serve", *logFormat)

	srv, err := server.New(server.Config{
		DataDir:     *data,
		LeaseTTL:    *leaseTTL,
		Logger:      logger,
		EnablePprof: *pprofOn,
	})
	if err != nil {
		logger.Error("startup", "error", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "error", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "data", *data,
		"lease_ttl", *leaseTTL, "pprof", *pprofOn)

	select {
	case err := <-served:
		logger.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// The drain sequence: refuse new submissions and claims (503 +
	// Retry-After — workers back off instead of erroring) while in-flight
	// shard uploads land over still-open connections; stop the listener
	// and wait for those requests; only then Close — which finishes local
	// runs and closes the job journals, so no upload is acked after its
	// job's journal is shut.
	logger.Info("shutting down: draining in-flight campaigns", "window", *drainFor)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "error", err)
	}
	srv.Close()
	logger.Info("drained")
}
