// Command reprod is the distributed campaign toolchain in one binary,
// split into three subcommands:
//
//	reprod serve   — the coordinator: the campaign-as-a-service HTTP
//	                 control plane with the content-addressed run cache
//	                 and the lease/heartbeat worker protocol.
//	reprod worker  — a shard executor: discovers running distributed
//	                 jobs on a coordinator, leases (vantage, slice)
//	                 shards, executes them locally against the same
//	                 frozen blueprint any other machine would compile,
//	                 and streams results back under heartbeats.
//	reprod run     — a client: submit a spec, await the job, and write
//	                 the merged dataset to a file, whether the
//	                 coordinator ran it in-process or farmed it out.
//
// Quickstart for a two-machine campaign (see README.md):
//
//	reprod serve -addr :8070 -data ./reprod-data &
//	reprod worker -coordinator http://localhost:8070 -id w1 &
//	reprod run -coordinator http://localhost:8070 \
//	    -spec '{"spec":1,"scale":"small","traces":2,"seed":2015,"execution":"distributed"}' \
//	    -out dataset.jsonl
//
// Every invocation names its subcommand: reprod alone, or with flags
// but no subcommand, prints the usage and exits 2.
package main

import (
	"fmt"
	"log/slog"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, "reprod: no command\n\n")
		usage(os.Stderr)
		os.Exit(2)
	}
	switch args[0] {
	case "serve":
		runServe(args[1:])
	case "worker":
		runWorker(args[1:])
	case "run":
		runRun(args[1:])
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "reprod: unknown command %q\n\n", args[0])
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: reprod <command> [flags]

commands:
  serve   start the coordinator
  worker  execute leased shards against a coordinator
  run     submit a spec, await the job, fetch the dataset

run "reprod <command> -h" for per-command flags.
`)
}

// newLogger builds the stderr logger serve's and worker's -log-format
// value names; an unknown format is a usage error of the named command
// (exit 2).
func newLogger(cmd, format string) *slog.Logger {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	fmt.Fprintf(os.Stderr, "reprod %s: unknown -log-format %q (want text or json)\n", cmd, format)
	os.Exit(2)
	return nil
}
