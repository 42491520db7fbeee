// Command bench is the repository's benchmark: the paper-scale
// campaign through each way of running it, measured end to end with
// tracing off and layer by layer from outside each package.
//
//	go run ./bench                     every workload, kernels and traced runs;
//	                                   prints `workload metric value unit n` lines,
//	                                   writes bench/out/result.json and trace files
//	go run ./bench -workload paper-direct -seed 7 -seconds 15 -trace 0
//	                                   one workload's end-to-end metrics; the last
//	                                   stdout line is the BENCHMARK.json result object
//	go run ./bench -workload paper-direct -seed 7 -seconds 15 -trace 1
//	                                   kernels + one traced run: the per-layer metrics
//	go run ./bench -compare A.json B.json
//	go run ./bench -update-golden
//
// One process generates all load. W = min(GOMAXPROCS, 4) is the only
// concurrency, plus one submitter; every loop is closed (a worker
// claims after its upload is acked, the submitter submits after its
// dataset arrives). Coordinators are in-process behind httptest, so
// HTTP crosses the host's loopback interface, never a real link. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	quick        bool
	outDir       string
	compare      bool
	updateGolden bool

	// Child-process flags, set only by the parent's re-exec.
	child string
	rep   int
	spawn int64
}

// Child modes.
const (
	childRep     = "rep"
	childSetup   = "setup"
	childKernels = "kernels"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "derives every campaign seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measure each workload for at least this long (0: the fixed repetition counts)")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced repetitions only; 1: kernels and the traced run only; -1: both")
	flag.BoolVar(&o.quick, "quick", false, "small world, one repetition, two jobs: exercises every path, measures nothing")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result.json, trace files and scratch data")
	flag.BoolVar(&o.compare, "compare", false, "compare two result.json files given as arguments")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "re-pin "+goldenPath+" at seed "+strconv.Itoa(goldenSeed))
	flag.StringVar(&o.child, "child", "", "internal: run as a child (rep, setup or kernels)")
	flag.IntVar(&o.rep, "rep", 0, "internal: repetition index")
	flag.Int64Var(&o.spawn, "spawn", 0, "internal: parent's spawn time, Unix ns")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, flag.Args())
	stop()
	os.Exit(code)
}

func run(ctx context.Context, o options, args []string) int {
	switch {
	case o.child != "":
		return runChild(o)
	case o.compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result.json paths")
			return 2
		}
		return runCompare(os.Stdout, args[0], args[1])
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if o.updateGolden {
		return runUpdateGolden(ctx, o)
	}
	return runBench(ctx, o)
}

// --- children ---------------------------------------------------------------

// runChild is the re-exec'd side: one repetition or the kernels, in a
// fresh process so no heap of a previous run carries over and peak RSS
// is per repetition. It prints exactly one JSON object on stdout.
func runChild(o options) int {
	var out any
	switch o.child {
	case childRep, childSetup:
		ro := repOptions{Workload: o.workload, Seed: o.seed, Rep: o.rep, Traced: o.trace == 1,
			Quick: o.quick, OutDir: o.outDir, SetupOnly: o.child == childSetup}
		if o.spawn != 0 {
			ro.Spawned = time.Unix(0, o.spawn)
		}
		res := runRep(ro)
		if res.Traced {
			if err := writeJSONL(tracePath(o.outDir, o.workload), res.spans); err != nil {
				res.failf("trace file: %v", err)
				res.Failed = res.Attempted
			}
		}
		out = res
	case childKernels:
		out = runKernels(o.seed, o.quick, o.outDir)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown child mode %q\n", o.child)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}

// childTimeout bounds one child. A repetition takes 5–10 s and the
// kernels ~25 s on 2 vCPU; a child that needs minutes is wedged.
const childTimeout = 150 * time.Second

// spawnChild re-executes this binary in a child mode and decodes the
// JSON object it prints. The child's stderr passes through.
func spawnChild(ctx context.Context, o options, mode, workload string, rep int, traced bool, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	args := []string{"-child", mode, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-rep", strconv.Itoa(rep), "-trace", strconv.Itoa(trace), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args = append(args, "-spawn", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child (%s): %w", mode, workload, err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s child (%s): undecodable result: %w", mode, workload, err)
	}
	return nil
}

// spawnRep runs one repetition (or, in childSetup mode, only its
// set-up) in a child. A child that dies is a failed repetition, not a
// harness abort: the metrics collected so far still print.
func spawnRep(ctx context.Context, o options, mode, workload string, rep int, traced bool) *repResult {
	res := &repResult{}
	if err := spawnChild(ctx, o, mode, workload, rep, traced, res); err != nil {
		res = &repResult{Workload: workload, Rep: rep, Traced: traced,
			Metrics: map[string]float64{}, Attempted: 1, Failed: 1}
		res.failf("%v", err)
	}
	return res
}

// runUpdateGolden re-pins golden.json: one untraced repetition of each
// workload at goldenSeed.
func runUpdateGolden(ctx context.Context, o options) int {
	o.seed, o.quick = goldenSeed, false
	results := make(map[string]*repResult)
	for _, w := range workloads {
		fmt.Printf("# pinning %s at seed %d\n", w.Name, o.seed)
		res := spawnRep(ctx, o, childRep, w.Name, 0, false)
		for _, f := range res.Failures {
			fmt.Printf("# %s: %s\n", w.Name, f)
		}
		if res.Hash == "" {
			fmt.Fprintf(os.Stderr, "bench: %s produced no dataset; golden not updated\n", w.Name)
			return 1
		}
		results[w.Name] = res
	}
	if results[wlDistributed].Hash != results[wlDirect].Hash {
		fmt.Fprintln(os.Stderr, "bench: paper-distributed and paper-direct hash differently; golden not updated")
		return 1
	}
	if err := writeGolden(results); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", goldenPath)
	return 0
}
