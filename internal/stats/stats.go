// Package stats provides the small statistical toolkit the analysis
// package needs: summary statistics, a binomial confidence interval for
// reachability proportions, and the phi coefficient used to quantify the
// (weak) UDP/TCP correlation of Table 2.
package stats

import "math"

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest value (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// WilsonInterval returns the 95% Wilson score interval for k successes
// in n trials — the right interval for proportions near 1, like the
// paper's 98.97% reachability.
func WilsonInterval(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	centre := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi = centre-half, centre+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Phi computes the phi coefficient (mean-square contingency) of a 2×2
// table given the four cell counts:
//
//	       B     !B
//	A      n11   n10
//	!A     n01   n00
//
// Values near 0 indicate no association — the paper's finding for
// "unreachable via ECT(0) UDP" vs "refuses ECN with TCP".
func Phi(n11, n10, n01, n00 int) float64 {
	a, b, c, d := float64(n11), float64(n10), float64(n01), float64(n00)
	denom := math.Sqrt((a + b) * (c + d) * (a + c) * (b + d))
	if denom == 0 {
		return 0
	}
	return (a*d - b*c) / denom
}
