package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a before/after comparison.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares one (workload, end-to-end metric) pair: base a, change
// b. The ratio's base is a's median. A pair whose run-to-run spread
// (interquartile distance over median, the wider of the two sides) is
// wider than the bound is unresolved — not unchanged — unless every
// run of one side reads better than every run of the other.
func judge(m metricDef, a, b summary) (ratio float64, verdict string) {
	if a.Median != 0 {
		ratio = b.Median / a.Median
	}
	// Orient so that "lower is better".
	am, bm, aMin, aMax, bMin, bMax := a.Median, b.Median, a.Min, a.Max, b.Min, b.Max
	if m.Better == higher {
		am, bm, aMin, aMax, bMin, bMax = -am, -bm, -a.Max, -a.Min, -b.Max, -b.Min
	}
	scale := a.Median
	if scale < 0 {
		scale = -scale
	}
	if spread := max(a.spread(), b.spread()); spread > m.Bound {
		switch {
		case bMax < aMin:
			return ratio, verdictBetter
		case bMin > aMax:
			return ratio, verdictWorse
		}
		return ratio, verdictUnresolved
	}
	switch delta := bm - am; {
	case delta > m.Bound*scale:
		return ratio, verdictWorse
	case delta < -m.Bound*scale:
		return ratio, verdictBetter
	}
	return ratio, verdictWithin
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints, per (workload, end-to-end metric), both medians,
// the ratio B/A, the bound and the verdict. It exits 1 when any pair
// is worse or unresolved, so it can gate.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResult(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "# A = %s (commit %s, seed %d)\n# B = %s (commit %s, seed %d)\n",
		pathA, a.Machine.Commit, a.Machine.Seed, pathB, b.Machine.Commit, b.Machine.Seed)
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			ratio, verdict := judge(m, ma.summary, mb.summary)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-14s %14s %14s %9.4f %6.0f%%  %s\n", wl.Name, m.Name,
				formatValue(ma.Median), formatValue(mb.Median), ratio, 100*m.Bound, verdict)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-18s %-14s %14d %14d %9s %6.0f%%  %s\n", wl.Name, mFail+" (ops)",
				wa.Failed, wb.Failed, "-", 0.0, verdictWorse)
			code = 1
		}
	}
	return code
}
