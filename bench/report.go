package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// minReps is the fewest repetitions a median is taken over.
const minReps = 3

// setupProbes is how many set-up-only children run beside each
// untraced repetition. Set-up takes 5–30 ms, where one scheduling
// hiccup is a 50 % error, so a repetition's setup_s is the median of
// its own set-up and these probes'.
const setupProbes = 5

// metricReport is one metric's entry in result.json.
type metricReport struct {
	Unit string `json:"unit"`
	summary
	// Tail is the highest percentile a latency's pooled per-job samples
	// support, e.g. "p95", with its value and the pooled sample count.
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	TailN     int     `json:"tail_n,omitempty"`
	// Samples are the per-repetition readings the summary is over.
	Samples []float64 `json:"samples,omitempty"`
}

// workloadReport is one workload's section of result.json.
type workloadReport struct {
	Why         string                  `json:"why"`
	Hash        string                  `json:"hash"`
	EndToEnd    map[string]metricReport `json:"end_to_end"`
	PerLayer    map[string]metricReport `json:"per_layer,omitempty"`
	Attempted   int                     `json:"ops_attempted"`
	Failed      int                     `json:"ops_failed"`
	Failures    []string                `json:"failures,omitempty"`
	Repetitions int                     `json:"repetitions"`
}

// machine records the shape of the box the numbers came from, so rows
// are comparable.
type machine struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	W          int      `json:"w"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Notes      []string `json:"notes"`
}

// result is result.json.
type result struct {
	Machine   machine                    `json:"machine"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Kernels   map[string]metricReport    `json:"kernels,omitempty"`
	// KernelFailures are kernel checks that failed (a kernel that
	// allocates, a merge that hashes wrong).
	KernelFailures []string `json:"kernel_failures,omitempty"`
}

func machineShape(o options) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          concurrency(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       o.seed,
		Notes: []string{
			"closed loop: W workers/uploaders plus one submitter, all in one process",
			"HTTP crosses the host's loopback interface (in-process coordinator behind httptest)",
			"data dirs and dataset files live under " + filepath.Join(o.outDir, "tmp") + " on the checkout's filesystem",
		},
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// runBench is the parent: it spawns the kernel child, the untraced
// repetitions (interleaved round-robin across workloads, so machine
// drift lands on all of them alike) and the traced run, checks the
// outputs across repetitions, and prints.
func runBench(ctx context.Context, o options) int {
	selected := workloads
	if o.workload != "" {
		w, _ := workloadByName(o.workload)
		selected = []workloadDef{w}
	}
	contract := o.workload != "" && o.trace >= 0
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	res := &result{Machine: machineShape(o), Workloads: make(map[string]*workloadReport)}
	fmt.Fprintf(out, "# bench: seed %d, W=%d (GOMAXPROCS %d, nproc %d), %s, kernel %s, commit %s\n",
		o.seed, res.Machine.W, res.Machine.GOMAXPROCS, res.Machine.NProc,
		res.Machine.GoVersion, res.Machine.Kernel, res.Machine.Commit)
	for _, note := range res.Machine.Notes {
		fmt.Fprintf(out, "# %s\n", note)
	}
	out.Flush()

	// Kernels first, in their own child, before any workload.
	var kernels *kernelResult
	if o.trace != 0 {
		kernels = &kernelResult{}
		if err := spawnChild(ctx, o, childKernels, "", 0, false, kernels); err != nil {
			kernels = &kernelResult{Metrics: map[string]float64{}}
			kernels.failf("%v", err)
		}
		res.Kernels = make(map[string]metricReport)
		for _, m := range perLayer {
			if v, ok := kernels.Metrics[m.Name]; ok {
				res.Kernels[m.Name] = metricReport{Unit: m.Unit, summary: summarize([]float64{v})}
				printMetric(out, "kernels", m.Name, res.Kernels[m.Name])
			}
		}
		res.KernelFailures = kernels.Failures
		for _, f := range kernels.Failures {
			fmt.Fprintf(out, "# FAIL kernels: %s\n", f)
		}
		out.Flush()
	}

	// Untraced repetitions. With -trace 1 a single one remains, as the
	// base the tracing overhead is measured against.
	untraced := make(map[string][]*repResult)
	measured := make(map[string]float64)
	want := func(w workloadDef) bool {
		n := len(untraced[w.Name])
		switch {
		case o.quick || o.trace == 1:
			return n < 1
		case o.seconds > 0:
			return n < minReps || measured[w.Name] < float64(o.seconds)
		default:
			return n < w.Reps
		}
	}
	for more := true; more; {
		more = false
		for _, w := range selected {
			if !want(w) || ctx.Err() != nil {
				continue
			}
			var setups []float64
			if !o.quick && o.trace != 1 {
				for i := 0; i < setupProbes; i++ {
					if v := spawnRep(ctx, o, childSetup, w.Name, 0, false).Metrics[mSetup]; v > 0 {
						setups = append(setups, v)
					}
				}
			}
			rep := spawnRep(ctx, o, childRep, w.Name, len(untraced[w.Name]), false)
			if own, ok := rep.Metrics[mSetup]; ok {
				rep.Metrics[mSetup] = median(append(setups, own))
			}
			untraced[w.Name] = append(untraced[w.Name], rep)
			if wall := rep.Metrics[mWall]; wall > 0 {
				measured[w.Name] += wall
			} else {
				measured[w.Name] += float64(o.seconds) // a dead repetition must not loop forever
			}
			fmt.Fprintf(out, "# %s rep %d: wall %.3f s, cpu %.3f s, calib %.1f ms, hash %s\n",
				w.Name, rep.Rep, rep.Metrics[mWall], rep.Metrics[mCPU], rep.Metrics["bench.calib_ms"], short(rep.Hash))
			out.Flush()
			more = true
		}
	}

	// Traced run, one per workload, after the untraced repetitions.
	traced := make(map[string]*repResult)
	if o.trace != 0 {
		for _, w := range selected {
			traced[w.Name] = spawnRep(ctx, o, childRep, w.Name, len(untraced[w.Name]), true)
		}
	}

	anyFailed := len(res.KernelFailures) > 0
	for _, w := range selected {
		wr := aggregate(o, w, untraced[w.Name], traced[w.Name])
		if untraced[wlDirect] != nil && w.Name == wlDistributed && wr.Hash != "" {
			// Same cache key, so the same bytes are required, on any seed.
			if direct := untraced[wlDirect][0].Hash; direct != wr.Hash {
				wr.Failures = append(wr.Failures, fmt.Sprintf(
					"hash mismatch: paper-distributed %s, paper-direct %s", short(wr.Hash), short(direct)))
				wr.Failed = wr.Attempted
			}
		}
		if len(res.KernelFailures) > 0 {
			wr.Failed = wr.Attempted
		}
		res.Workloads[w.Name] = wr
		printWorkload(out, w.Name, wr)
		if tr := traced[w.Name]; tr != nil {
			if spans, err := readJSONL(tracePath(o.outDir, w.Name)); err == nil {
				printAttribution(out, w.Name, spans)
			} else {
				fmt.Fprintf(out, "# trace %s: %v\n", w.Name, err)
			}
		}
		anyFailed = anyFailed || wr.Failed > 0
	}
	os.RemoveAll(filepath.Join(o.outDir, "tmp"))

	if !contract {
		if err := writeResult(filepath.Join(o.outDir, "result.json"), res); err != nil {
			fmt.Fprintf(out, "# result.json: %v\n", err)
			anyFailed = true
		}
		if anyFailed {
			return 1
		}
		return 0
	}
	// Contract mode: the verdict travels in the result object, which
	// must be the last line of stdout.
	wr := res.Workloads[o.workload]
	line := contractLine(o, wr, res.Kernels)
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", raw)
	return 0
}

// aggregate reduces a workload's repetitions to its report and applies
// the checks that span repetitions: all hash alike, the simulated
// counts repeat exactly, golden at the default seed.
func aggregate(o options, w workloadDef, reps []*repResult, traced *repResult) *workloadReport {
	wr := &workloadReport{Why: w.Why, EndToEnd: make(map[string]metricReport), Repetitions: len(reps)}
	all := append([]*repResult(nil), reps...)
	if traced != nil {
		all = append(all, traced)
	}
	samples := make(map[string][]float64)
	pooled := make(map[string][]float64)
	ro := repOptions{Workload: w.Name, Seed: o.seed, Quick: o.quick}
	for _, r := range all {
		before := len(r.Failures)
		if r.Hash != "" {
			checkGolden(ro, r)
		}
		if wr.Hash == "" {
			wr.Hash = r.Hash
		} else if r.Hash != wr.Hash {
			r.failf("hash mismatch: repetition %d hashed %s, repetition 0 hashed %s", r.Rep, short(r.Hash), short(wr.Hash))
		}
		if first := all[0]; r.Metrics[mEvents] != first.Metrics[mEvents] {
			r.failf("sim_events %.0f differs from repetition 0's %.0f", r.Metrics[mEvents], first.Metrics[mEvents])
		}
		if len(r.Failures) > before {
			r.Failed = r.Attempted
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, f := range r.Failures {
			wr.Failures = append(wr.Failures, fmt.Sprintf("rep %d: %s", r.Rep, f))
		}
	}
	// End-to-end metrics come from the untraced repetitions only: one
	// reading per repetition (a latency's is that repetition's p50), so
	// a metric's spread is its run-to-run spread. The tail percentile
	// is taken over the repetitions' pooled per-job samples.
	for _, r := range reps {
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; ok {
				samples[m.Name] = append(samples[m.Name], v)
			}
		}
		for name, s := range r.Samples {
			samples[name] = append(samples[name], median(s))
			pooled[name] = append(pooled[name], s...)
		}
	}
	for _, m := range endToEnd {
		if len(samples[m.Name]) == 0 {
			continue
		}
		mr := metricReport{Unit: m.Unit, summary: summarize(samples[m.Name]), Samples: samples[m.Name]}
		if p, v, ok := highPercentile(pooled[m.Name]); ok {
			mr.Tail, mr.TailValue, mr.TailN = percentileLabel(p), v, len(pooled[m.Name])
		}
		wr.EndToEnd[m.Name] = mr
	}
	if wr.Attempted > 0 {
		ratio := float64(wr.Failed) / float64(wr.Attempted)
		wr.EndToEnd[mFail] = metricReport{Unit: unitOf(mFail), summary: summarize([]float64{ratio})}
	}
	if traced != nil {
		wr.PerLayer = make(map[string]metricReport)
		if base := wr.EndToEnd[mWall].Median; base > 0 && traced.Metrics[mWall] > 0 {
			traced.Metrics["bench.trace_overhead_pct"] = 100 * (traced.Metrics[mWall]/base - 1)
		}
		for _, m := range perLayer {
			if v, ok := traced.Metrics[m.Name]; ok {
				wr.PerLayer[m.Name] = metricReport{Unit: m.Unit, summary: summarize([]float64{v})}
			}
		}
		if !o.quick && traced.Metrics["bench.span_coverage_pct"] < 95 && len(traced.Failures) == 0 {
			wr.Failures = append(wr.Failures, fmt.Sprintf("span coverage %.1f %% is below 95 %%", traced.Metrics["bench.span_coverage_pct"]))
			wr.Failed = wr.Attempted
		}
	}
	return wr
}

// printMetric writes one `workload metric value unit n` line; the
// spread follows as a comment.
func printMetric(w io.Writer, workload, name string, m metricReport) {
	fmt.Fprintf(w, "%s %s %s %s %d", workload, name, formatValue(m.Median), m.Unit, m.N)
	if m.N > 1 {
		fmt.Fprintf(w, "  # q1 %s q3 %s min %s max %s", formatValue(m.Q1), formatValue(m.Q3), formatValue(m.Min), formatValue(m.Max))
	}
	fmt.Fprintln(w)
	if m.Tail != "" {
		fmt.Fprintf(w, "%s %s.%s %s %s %d\n", workload, name, m.Tail, formatValue(m.TailValue), m.Unit, m.TailN)
	}
}

// formatValue keeps every digit a reading has without printing counts
// in exponent form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

func printWorkload(w io.Writer, name string, wr *workloadReport) {
	for _, m := range endToEnd {
		if mr, ok := wr.EndToEnd[m.Name]; ok {
			printMetric(w, name, m.Name, mr)
		}
	}
	if mr, ok := wr.EndToEnd[mFail]; ok {
		printMetric(w, name, mFail, mr)
	}
	for _, m := range perLayer {
		if mr, ok := wr.PerLayer[m.Name]; ok {
			printMetric(w, name, m.Name, mr)
		}
	}
	fmt.Fprintf(w, "# %s: %d repetitions, ops_attempted %d, ops_failed %d, dataset %s\n",
		name, wr.Repetitions, wr.Attempted, wr.Failed, short(wr.Hash))
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "# FAIL %s: %s\n", name, f)
	}
}

func writeResult(path string, res *result) error {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSONL(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
}

// --- the BENCHMARK.json result object -----------------------------------------

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractLine builds the result object BENCHMARK.json's contract
// asks for: with -trace 0 every end-to-end metric, with -trace 1 every
// per-layer metric.
func contractLine(o options, wr *workloadReport, kernels map[string]metricReport) contractResult {
	line := contractResult{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]contractValue)}
	if o.trace == 0 {
		for name, v := range contractMetrics(o.workload, wr) {
			line.Metrics[name] = contractValue{Value: v, Unit: unitOf(name)}
		}
		return line
	}
	// A layer the workload never enters did no work: its counts are 0.
	for _, m := range perLayer {
		v := wr.PerLayer[m.Name].Median
		if k, ok := kernels[m.Name]; ok {
			v = k.Median
		}
		line.Metrics[m.Name] = contractValue{Value: v, Unit: m.Unit}
	}
	return line
}

// contractMetrics is the end-to-end row of one workload with every
// cell filled. The contract wants each end-to-end metric from each
// workload and none of them zero, but the three job latencies are
// defined on the mix alone. On a paper workload a repetition *is* one
// cold job — spec in hand to dataset bytes in hand — so its latency,
// the repetition's wall clock in milliseconds, fills those cells. They
// carry no information wall_s does not; full runs do not print them.
func contractMetrics(workload string, wr *workloadReport) map[string]float64 {
	out := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		if definedOn(m.Name, workload) {
			out[m.Name] = wr.EndToEnd[m.Name].Median
		} else {
			out[m.Name] = 1e3 * wr.EndToEnd[mWall].Median
		}
	}
	return out
}
