// Command determinism promotes the campaign engine's headline invariant
// — the merged dataset is byte-identical for any parallelism shape —
// from a test assertion to an explicit pipeline check. For every
// scenario it runs the same small-scale campaign across the full
// slices × workers grid, hashes each merged dataset (SHA-256 over the
// canonical JSON-lines encoding), and exits non-zero on any divergence.
//
// CI runs it as the `determinism` job; locally `make determinism` does
// the same. The spec axes come from the shared campaign flag surface
// (campaign.BindSpecFlags in grid mode): -workers/-slices/-scenario
// accept comma-separated axis values, a REPRO_* variable narrows its
// axis to one value, and the defaults — slices ∈ {1, 2, 8} × workers ∈
// {1, 4, 13} × all scenarios — span one-shard-per-vantage through
// more-slices-than-traces and sequential through
// one-goroutine-per-vantage. Every spec cell then runs four times: on
// the production timing wheel and the heap scheduler, under the
// production lazy cross-traffic replay and the event-per-boundary
// drive. The two oracles are not on the spec or any flag — they cannot
// change a byte, and this command is what proves it — so the sweep
// sets campaign.Config's typed Scheduler/XTraffic fields itself. All
// hashes of a scenario must be equal; the first line printed is always
// the wheel + lazy reference.
//
// Every cell also runs the traceroute sweep (stride 12 unless -stride
// says otherwise), whose path observations are not part of the dataset:
// each line ends in a rows= column, the canonical digest of the merged
// sweep rows (traceroute.HashRows), which must be equal across a
// scenario's slices × workers × scheduler cells. It is compared per
// cross-traffic drive: on congested-transit the two drives agree on
// every row but order two paths that complete in the same nanosecond
// differently (rows are listed in completion order; ROADMAP item 3
// records the tie). The sweep runs in its own epoch on its own PRNG
// stream, so it cannot move the dataset hash in the first column.
//
// `make determinism` also diffs the whole output, at the default grid,
// against the committed golden.txt beside this file: a change that keeps
// every cell equal to its neighbours but moves them all still fails.
//
// The hash this command prints for a spec is the control plane's
// correctness contract: a dataset served by cmd/reprod for the same
// spec must have the same SHA-256 (every row of cmd/reprod's
// TestEndToEnd asserts exactly that against the pinned hash).
//
// Every grid cell runs with a full telemetry set attached
// (campaign.NewMetrics), so the grid doubles as the out-of-band proof
// for the flight recorder: if instrumentation ever perturbed an event
// order or a PRNG draw, the cell's hash would diverge here before
// anything else caught it.
//
// Usage:
//
//	determinism [-seed N] [-traces N] [-stride N] [-workers 1,4,13] [-slices 1,2,8] [-scenario a,b]
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/traceroute"
)

func main() {
	base := campaign.DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 12
	spec := campaign.BindSpecFlags(flag.CommandLine, campaign.FlagOptions{
		Base: base,
		Grid: &campaign.GridDefaults{
			Scenarios: campaign.Scenarios(),
			Workers:   []int{1, 4, 13},
			Slices:    []int{1, 2, 8},
		},
	})
	flag.Parse()

	cells, err := spec.ResolveGrid()
	if err != nil {
		fatal("%v", err)
	}

	// Cells arrive scenario-outermost; each scenario's first run (wheel
	// + lazy) sets the reference hash the rest of its block must match.
	failed := false
	runs := 0
	scenario, ref := "", ""
	var refRows map[netsim.XTrafficMode]string
	for _, cell := range cells {
		if cell.Scenario != scenario {
			scenario, ref, refRows = cell.Scenario, "", map[netsim.XTrafficMode]string{}
		}
		for _, xmode := range []netsim.XTrafficMode{netsim.XTrafficLazy, netsim.XTrafficEvents} {
			for _, sched := range []netsim.Scheduler{netsim.SchedWheel, netsim.SchedHeap} {
				label := fmt.Sprintf("scenario=%s sched=%s xtraffic=%s slices=%d workers=%d",
					cell.Scenario, sched.Name(), xmode.Name(), cell.SlicesPerVantage, cell.Workers)
				sum, rows, err := runHash(cell, sched, xmode)
				if err != nil {
					fatal("%s: %v", label, err)
				}
				fmt.Printf("%s  %s rows=%s\n", sum, label, rows)
				runs++
				if ref == "" {
					ref = sum
				}
				if refRows[xmode] == "" {
					refRows[xmode] = rows
				}
				if sum != ref || rows != refRows[xmode] {
					fmt.Fprintf(os.Stderr, "determinism: FAIL: diverges at %s (dataset equal: %v, sweep rows equal: %v)\n",
						label, sum == ref, rows == refRows[xmode])
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("determinism: OK — %d merged datasets identical across the slices × workers × scheduler × cross-traffic grid, their traceroute sweep rows across slices × workers × scheduler\n", runs)
}

// runHash executes one grid cell's campaign on the given scheduler and
// cross-traffic drive — telemetry attached — and returns the SHA-256 of
// its merged dataset in canonical JSON-lines form and the canonical
// digest of its merged sweep rows, hashed segment by segment.
func runHash(spec campaign.Spec, sched netsim.Scheduler, xmode netsim.XTrafficMode) (data, rows string, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", "", err
	}
	cfg.Scheduler, cfg.XTraffic = sched, xmode
	cfg.Metrics = campaign.NewMetrics(telemetry.NewRegistry())
	res, err := campaign.Run(cfg)
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	if err := dataset.Write(h, res.Dataset); err != nil {
		return "", "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), traceroute.HashRows(res.PathObs...), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "determinism: "+format+"\n", args...)
	os.Exit(1)
}
