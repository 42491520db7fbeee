package main

// reprod worker: a stateless shard executor. It discovers running
// distributed jobs on the coordinator, leases batches of shards,
// compiles the same frozen blueprint the coordinator pinned, executes,
// and uploads — the engine's determinism is what makes any worker's
// bytes interchangeable with any other's. The batch size, the
// per-request timeout and the retry schedule are the worker package's
// constants.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apiclient"
	"repro/internal/worker"
)

func runWorker(args []string) {
	fs := flag.NewFlagSet("reprod worker", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:8070", "coordinator base URL")
		id          = fs.String("id", "", "worker ID for leases and metrics (default host.pid)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle re-scan interval")
		exitIdle    = fs.Bool("exit-when-idle", false, "exit once no distributed work remains")
		logFormat   = fs.String("log-format", "text", "log output format: text or json")
	)
	fs.Parse(args)

	logger := newLogger("worker", *logFormat)

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("worker starting", "coordinator", *coordinator, "id", *id)
	stats, err := worker.Run(ctx, worker.Config{
		Client:       apiclient.New(*coordinator),
		ID:           *id,
		Poll:         *poll,
		ExitWhenIdle: *exitIdle,
		Logger:       logger,
	})
	out, _ := json.Marshal(stats)
	fmt.Println(string(out))
	if err != nil && ctx.Err() == nil {
		logger.Error("worker", "error", err)
		os.Exit(1)
	}
}
