package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func linearCurve() ScalingCurve {
	return ScalingCurve{{4, 48}, {8, 24}, {16, 12}, {48, 4}}
}

func flatCurve() ScalingCurve {
	return ScalingCurve{{4, 40}, {8, 39}, {16, 41}, {48, 40}}
}

func TestSpeedups(t *testing.T) {
	sp := linearCurve().Speedups()
	want := []float64{1, 2, 4, 12}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-9 {
			t.Errorf("speedup[%d] = %v, want %v", i, sp[i], want[i])
		}
	}
}

func TestEfficiency(t *testing.T) {
	eff := linearCurve().Efficiency()
	for i, e := range eff {
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("efficiency[%d] = %v, want 1 (ideal curve)", i, e)
		}
	}
}

func TestMaxSpeedup(t *testing.T) {
	c := ScalingCurve{{4, 40}, {8, 20}, {16, 25}, {48, 30}}
	sp, threads := c.MaxSpeedup()
	if threads != 8 || math.Abs(sp-2) > 1e-9 {
		t.Errorf("MaxSpeedup = %v@%d, want 2@8", sp, threads)
	}
}

func TestIsScalable(t *testing.T) {
	if !linearCurve().IsScalable(2.0) {
		t.Error("ideal curve classified non-scalable")
	}
	if flatCurve().IsScalable(2.0) {
		t.Error("flat curve classified scalable")
	}
	if (ScalingCurve{{4, 10}}).IsScalable(2.0) {
		t.Error("single point classified scalable")
	}
}

func TestAmdahlFit(t *testing.T) {
	// Construct a curve from Amdahl's law with f = 0.2, T1 = 100 at 1 thread.
	f := 0.2
	var c ScalingCurve
	for _, n := range []int{1, 2, 4, 8, 16, 48} {
		tn := 100 * (f + (1-f)/float64(n))
		c = append(c, ScalingPoint{n, tn})
	}
	got := c.AmdahlFit()
	if math.Abs(got-f) > 0.01 {
		t.Errorf("AmdahlFit = %v, want ~%v", got, f)
	}
}

func TestGrowthFactor(t *testing.T) {
	if g := GrowthFactor([]float64{10, 20, 40}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GrowthFactor = %v, want 4", g)
	}
	if g := GrowthFactor([]float64{0, 10}); !math.IsInf(g, 1) {
		t.Errorf("GrowthFactor from zero = %v, want +Inf", g)
	}
	if g := GrowthFactor([]float64{0, 0}); g != 1 {
		t.Errorf("GrowthFactor all-zero = %v, want 1", g)
	}
	if g := GrowthFactor([]float64{5}); g != 1 {
		t.Errorf("GrowthFactor single = %v, want 1", g)
	}
}

func TestMonotone(t *testing.T) {
	if !MonotoneIncreasing([]float64{1, 2, 2, 3}, 0.01) {
		t.Error("increasing series rejected")
	}
	if MonotoneIncreasing([]float64{3, 1}, 0.01) {
		t.Error("decreasing series accepted as increasing")
	}
	if !MonotoneIncreasing([]float64{100, 99.5, 101}, 0.01) {
		t.Error("within-tolerance dip rejected")
	}
	if !MonotoneDecreasing([]float64{5, 4, 3}, 0.01) {
		t.Error("decreasing series rejected")
	}
	if MonotoneDecreasing([]float64{3, 5}, 0.01) {
		t.Error("increasing series accepted as decreasing")
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := ImbalanceRatio([]float64{1, 1, 1, 1}); math.Abs(r-1) > 1e-9 {
		t.Errorf("uniform imbalance = %v, want 1", r)
	}
	// One thread does everything among 4.
	if r := ImbalanceRatio([]float64{100, 0, 0, 0}); math.Abs(r-4) > 1e-9 {
		t.Errorf("single-thread imbalance = %v, want 4", r)
	}
	if r := ImbalanceRatio(nil); r != 1 {
		t.Errorf("empty imbalance = %v, want 1", r)
	}
}

func TestTopKShare(t *testing.T) {
	shares := []float64{50, 30, 10, 5, 3, 2}
	if got := TopKShare(shares, 2); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("Top2Share = %v, want 0.8", got)
	}
	if got := TopKShare(shares, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("TopAllShare = %v, want 1", got)
	}
	if got := TopKShare(nil, 3); got != 0 {
		t.Errorf("empty TopKShare = %v", got)
	}
}

// Property: speedups are positive whenever times are positive, and the
// first entry is exactly 1.
func TestSpeedupProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var c ScalingCurve
		for i, tm := range times {
			c = append(c, ScalingPoint{Threads: i + 1, Seconds: float64(tm) + 1})
		}
		sp := c.Speedups()
		if len(c) == 0 {
			return sp == nil
		}
		if sp[0] != 1 {
			return false
		}
		for _, s := range sp {
			if s <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: TopKShare is monotone in k and bounded by 1.
func TestTopKShareProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		shares := make([]float64, len(raw))
		for i, v := range raw {
			shares[i] = float64(v)
		}
		prev := 0.0
		for k := 1; k <= len(shares)+1; k++ {
			s := TopKShare(shares, k)
			if s < prev-1e-9 || s > 1+1e-9 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
