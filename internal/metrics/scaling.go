package metrics

import "math"

// ScalingPoint is one measurement in a thread/core sweep.
type ScalingPoint struct {
	// Threads is the mutator thread count (equal to enabled cores in the
	// paper's methodology).
	Threads int
	// Seconds is the measured execution time for this point.
	Seconds float64
}

// ScalingCurve is a sweep of execution times across thread counts, ordered
// by ascending Threads.
type ScalingCurve []ScalingPoint

// Speedups returns the speedup of each point relative to the first
// (smallest thread count) point.
func (c ScalingCurve) Speedups() []float64 {
	if len(c) == 0 {
		return nil
	}
	base := c[0].Seconds
	out := make([]float64, len(c))
	for i, p := range c {
		if p.Seconds > 0 {
			out[i] = base / p.Seconds
		}
	}
	return out
}

// Efficiency returns per-point parallel efficiency: speedup divided by the
// thread-count ratio relative to the first point.
func (c ScalingCurve) Efficiency() []float64 {
	sp := c.Speedups()
	out := make([]float64, len(sp))
	for i := range sp {
		ratio := float64(c[i].Threads) / float64(c[0].Threads)
		if ratio > 0 {
			out[i] = sp[i] / ratio
		}
	}
	return out
}

// MaxSpeedup returns the largest speedup in the sweep and the thread count
// that achieved it.
func (c ScalingCurve) MaxSpeedup() (speedup float64, threads int) {
	for i, s := range c.Speedups() {
		if s > speedup {
			speedup = s
			threads = c[i].Threads
		}
	}
	return speedup, threads
}

// IsScalable applies the paper's operational definition (§II-C): an
// application is scalable if its execution time keeps reducing as threads
// and cores are added. Quantitatively: the largest thread count must be
// faster than the smallest by at least minSpeedup, and must retain at
// least 95% of the best speedup seen anywhere in the sweep (performance
// is still improving at the top, not rolled over).
func (c ScalingCurve) IsScalable(minSpeedup float64) bool {
	if len(c) < 2 {
		return false
	}
	sp := c.Speedups()
	last := len(sp) - 1
	best, _ := c.MaxSpeedup()
	return c[last].Seconds < c[0].Seconds &&
		sp[last] >= minSpeedup &&
		sp[last] >= 0.95*best
}

// AmdahlFit estimates the sequential fraction f by a least-squares fit of
// Amdahl's law T(n) = T1*(f + (1-f)/ratio) over the curve. It is used to
// sanity-check the workload models against their configured sequential
// fractions.
func (c ScalingCurve) AmdahlFit() float64 {
	if len(c) < 2 {
		return 0
	}
	t1 := c[0].Seconds
	n1 := float64(c[0].Threads)
	// For each point, solve pointwise f_i = (T_i/T1 - 1/r) / (1 - 1/r),
	// then average; robust enough for monotone curves.
	var sum float64
	var cnt int
	for _, p := range c[1:] {
		r := float64(p.Threads) / n1
		if r <= 1 || t1 <= 0 {
			continue
		}
		fi := (p.Seconds/t1 - 1/r) / (1 - 1/r)
		sum += fi
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	f := sum / float64(cnt)
	return math.Max(0, math.Min(1, f))
}

// GrowthFactor returns last/first for a series of non-negative values,
// the "how many times bigger did this get across the sweep" statistic used
// for the lock-count figures. It returns +Inf when the series starts at
// zero but grows, and 1 for empty or all-zero series.
func GrowthFactor(series []float64) float64 {
	if len(series) < 2 {
		return 1
	}
	first, last := series[0], series[len(series)-1]
	if first == 0 {
		if last == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return last / first
}

// MonotoneIncreasing reports whether the series never decreases by more
// than tolerance (relative). It tolerates flat stretches.
func MonotoneIncreasing(series []float64, tolerance float64) bool {
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1]*(1-tolerance) {
			return false
		}
	}
	return true
}

// MonotoneDecreasing reports whether the series never increases by more
// than tolerance (relative).
func MonotoneDecreasing(series []float64, tolerance float64) bool {
	for i := 1; i < len(series); i++ {
		if series[i] > series[i-1]*(1+tolerance) {
			return false
		}
	}
	return true
}

// ImbalanceRatio quantifies work distribution across threads as
// max/mean of the per-thread shares. A perfectly uniform distribution has
// ratio 1; a pipeline where 3 of 48 threads do everything has ratio ~16.
func ImbalanceRatio(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	var max, sum float64
	for _, s := range shares {
		if s > max {
			max = s
		}
		sum += s
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(shares))
	return max / mean
}

// TopKShare returns the fraction of total work carried by the k busiest
// threads. The paper observes jython concentrates most work in 3-4 threads.
func TopKShare(shares []float64, k int) float64 {
	if len(shares) == 0 || k <= 0 {
		return 0
	}
	cp := make([]float64, len(shares))
	copy(cp, shares)
	// Selection by partial sort: series are short (<= threads), so a full
	// sort is fine.
	sortDescending(cp)
	if k > len(cp) {
		k = len(cp)
	}
	var top, total float64
	for i, v := range cp {
		if i < k {
			top += v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return top / total
}

func sortDescending(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
