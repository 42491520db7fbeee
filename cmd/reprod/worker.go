package main

// reprod worker: a stateless shard executor. It discovers running
// distributed jobs on the coordinator (or works an explicit -job
// list), leases batches of shards, compiles the same frozen blueprint
// the coordinator pinned, executes, and uploads — the engine's
// determinism is what makes any worker's bytes interchangeable with
// any other's.

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
		batch       = fs.Int("batch", 2, "shards leased per claim")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle re-scan interval")
		exitIdle    = fs.Bool("exit-when-idle", false, "exit once no distributed work remains")
		logFormat   = fs.String("log-format", "text", "log output format: text or json")
		retryMax    = fs.Int("retry-max", 8, "retries per transient coordinator failure")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "initial retry backoff (doubles, capped)")
		retryCap    = fs.Duration("retry-cap", 5*time.Second, "retry backoff ceiling")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request coordinator timeout (0 = none)")
	)
	var jobIDs stringList
	fs.Var(&jobIDs, "job", "work only this job ID (repeatable; default discovers running jobs)")
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

	logger.Info("worker starting", "coordinator", *coordinator, "id", *id, "batch", *batch)
	stats, err := worker.Run(ctx, worker.Config{
		Client:         apiclient.New(*coordinator),
		ID:             *id,
		Batch:          *batch,
		Poll:           *poll,
		Jobs:           jobIDs,
		ExitWhenIdle:   *exitIdle,
		Logger:         logger,
		MaxRetries:     *retryMax,
		RetryBase:      *retryBase,
		RetryCap:       *retryCap,
		RequestTimeout: *reqTimeout,
	})
	out, _ := json.Marshal(stats)
	fmt.Println(string(out))
	if err != nil && ctx.Err() == nil {
		logger.Error("worker", "error", err)
		os.Exit(1)
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
