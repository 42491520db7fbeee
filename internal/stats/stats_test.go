package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMinMax(t *testing.T) {
	xs := []float64{4, 1, 7, 2}
	if Mean(xs) != 3.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Min(xs) != 1 {
		t.Errorf("min = %v", Min(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 {
		t.Error("empty input should give zeros")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !approx(got, 2, 1e-9) {
		t.Errorf("stddev = %v, want 2", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single value stddev should be 0")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(2230, 2253)
	if !(lo < 0.9897 && 0.9897 < hi) {
		t.Errorf("interval [%v, %v] should contain the point estimate", lo, hi)
	}
	if hi > 1 || lo < 0 {
		t.Error("interval outside [0,1]")
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Error("empty trials should give [0,1]")
	}
	// Perfect success keeps hi at 1 but lo below 1.
	lo, hi = WilsonInterval(50, 50)
	if lo >= 1 || hi > 1 {
		t.Errorf("perfect success interval [%v, %v]", lo, hi)
	}
}

func TestWilsonIntervalOrderProperty(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := WilsonInterval(k, n)
		p := float64(k) / float64(n)
		return lo <= p+1e-12 && p <= hi+1e-12 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPhi(t *testing.T) {
	// Perfect positive association.
	if got := Phi(10, 0, 0, 10); !approx(got, 1, 1e-9) {
		t.Errorf("perfect phi = %v", got)
	}
	// Perfect negative association.
	if got := Phi(0, 10, 10, 0); !approx(got, -1, 1e-9) {
		t.Errorf("negative phi = %v", got)
	}
	// Independence: rows proportional.
	if got := Phi(20, 20, 5, 5); !approx(got, 0, 1e-9) {
		t.Errorf("independent phi = %v", got)
	}
	// Degenerate margins.
	if Phi(0, 0, 0, 0) != 0 {
		t.Error("degenerate table should be 0")
	}
}

func TestPhiBoundedProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		got := Phi(int(a), int(b), int(c), int(d))
		return got >= -1-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
