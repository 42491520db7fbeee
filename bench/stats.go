package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the order statistics the harness reports for one metric:
// the median carries every comparison, the quartiles its spread.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize reduces samples to their order statistics. Quartiles sit
// at positions (n+1)/4 and 3(n+1)/4 like Python's
// statistics.quantiles(n=4), which is what the acceptance procedure
// computes spreads with (Python extrapolates past the ends of very
// small samples; this clamps). Below two samples there is no spread.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Q3 = out.Median, out.Median
	if len(s) >= 2 {
		out.Q1, out.Q3 = quantile(s, 0.25), quantile(s, 0.75)
	}
	return out
}

// quantile interpolates the p-quantile of sorted samples at position
// p×(n+1), clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// tailPermille are the candidates for "the highest percentile the
// sample supports", highest first, in tenths of a percent so that
// ranks are exact integers.
var tailPermille = []int{999, 990, 950, 900, 750}

// highPercentile picks the highest percentile with at least ten
// samples beyond it and returns it with its value (nearest-rank). With
// fewer than 40 samples no tail percentile is supported and ok is
// false: the median is then all the sample can say.
func highPercentile(samples []float64) (p, value float64, ok bool) {
	n := len(samples)
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, pm := range tailPermille {
		rank := (pm*n + 999) / 1000 // 1-based nearest rank, rounded up
		if rank >= 1 && n-rank >= 10 {
			return float64(pm) / 10, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentileLabel renders 99.9 as "p99.9" and 95 as "p95".
func percentileLabel(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("p%d", int(p))
	}
	return fmt.Sprintf("p%g", p)
}

func median(samples []float64) float64 { return summarize(samples).Median }
