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
// The daemon carries its own flight recorder: GET /v1/metrics exposes
// allocation-free engine, HTTP, and lease metrics in the Prometheus
// text format (/v1/metrics.json for the same snapshot as JSON), GET
// /v1/jobs/{id}/events replays a job's lifecycle from the in-memory
// journal, and -pprof mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM drain gracefully: open local jobs finish and are
// cached before exit.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
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
		journal   = fs.Bool("journal", true, "write-ahead journal for distributed jobs (crash recovery)")
		drainFor  = fs.Duration("drain", 30*time.Second, "graceful-shutdown window for in-flight work")
		speculate = fs.Float64("speculate-after", 3.0, "re-expose a leased shard after this multiple of the job's typical shard duration (0 disables straggler speculation)")
		quarAfter = fs.Int("quarantine-threshold", 3, "wasteful-event strikes before a worker's claims are refused (0 disables quarantine)")
		maxOpen   = fs.Int("max-open-shards", 4096, "shed new submissions once queued jobs plus running distributed shards reach this watermark (0 disables shedding)")
	)
	fs.Parse(args)

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "reprod serve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	// Flag zero means "off"; the Config encodes off as negative (its
	// zero keeps the server default).
	disableZero := func(v float64) float64 {
		if v == 0 {
			return -1
		}
		return v
	}
	srv, err := server.New(server.Config{
		DataDir:             *data,
		LeaseTTL:            *leaseTTL,
		Logger:              logger,
		EnablePprof:         *pprofOn,
		DisableJournal:      !*journal,
		SpeculateAfter:      disableZero(*speculate),
		QuarantineThreshold: int(disableZero(float64(*quarAfter))),
		MaxOpenShards:       int(disableZero(float64(*maxOpen))),
	})
	if err != nil {
		logger.Error("startup", "error", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// The drain sequence: refuse new submissions and claims (503 +
		// Retry-After — workers back off instead of erroring) while
		// in-flight shard uploads land over still-open connections, then
		// stop the listener, then Close — which finishes local runs and
		// journals the clean-shutdown marker.
		logger.Info("shutting down: draining in-flight campaigns", "window", *drainFor)
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}()

	logger.Info("serving", "addr", *addr, "data", *data,
		"lease_ttl", *leaseTTL, "pprof", *pprofOn, "journal", *journal)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen", "error", err)
		os.Exit(1)
	}
	// The HTTP listener is closed; finish the open local jobs so their
	// results are cached for the next start.
	srv.Close()
	logger.Info("drained")
}
