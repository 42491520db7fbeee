package main

// reprod run: submit a campaign spec to a coordinator, await the job,
// and write the merged dataset. The run report (with the dataset's
// SHA-256) goes to stdout as JSON, so scripts can pin hashes without
// a second request; it polls the job every 200 ms.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/apiclient"
)

func runRun(args []string) {
	fs := flag.NewFlagSet("reprod run", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:8070", "coordinator base URL")
		specArg     = fs.String("spec", "", "campaign spec: inline JSON, @file, or - for stdin")
		out         = fs.String("out", "", "dataset output path (default: no dataset fetch)")
	)
	fs.Parse(args)

	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "reprod run: "+format+"\n", a...)
		os.Exit(1)
	}

	spec, err := readSpec(*specArg)
	if err != nil {
		fail("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := apiclient.New(*coordinator)

	job, created, err := client.SubmitRaw(ctx, spec)
	if err != nil {
		fail("submit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "reprod run: job %s (created=%v state=%s)\n", job.ID, created, job.State)

	if _, err := client.AwaitJob(ctx, job.ID, 200*time.Millisecond); err != nil {
		fail("%v", err)
	}

	if *out != "" {
		data, err := client.JobDataset(ctx, job.ID)
		if err != nil {
			fail("dataset: %v", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "reprod run: wrote %d bytes to %s\n", len(data), *out)
	}

	report, err := client.JobReport(ctx, job.ID)
	if err != nil {
		fail("report: %v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fail("%v", err)
	}
}

// readSpec resolves the -spec argument: inline JSON (starts with "{"),
// @path, or "-" for stdin.
func readSpec(arg string) ([]byte, error) {
	switch {
	case arg == "":
		return nil, fmt.Errorf("-spec is required (inline JSON, @file, or -)")
	case arg == "-":
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("read stdin: %w", err)
		}
		return b, nil
	case strings.HasPrefix(arg, "@"):
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		return b, nil
	default:
		return []byte(arg), nil
	}
}
