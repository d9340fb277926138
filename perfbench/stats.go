package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// byVariant holds samples keyed by the plan variant they came from. Its
// quantiles are the mean over variants of each variant's quantile, so
// that every variant weighs alike, however many rounds a run gave it,
// and a quantile that falls between two clusters of one variant's
// samples moves by a fraction of the gap, not the whole of it.
type byVariant map[int][]float64

func (b byVariant) add(variant int, xs ...float64) { b[variant] = append(b[variant], xs...) }

func (b byVariant) quantile(q float64) float64 {
	if len(b) == 0 {
		return 0
	}
	t := 0.0
	for _, xs := range b {
		t += quantile(xs, q)
	}
	return t / float64(len(b))
}

func (b byVariant) value() float64 { return b.quantile(0.5) }

// ratioTo is the mean, over the variants both hold, of b's median over
// base's median, so that each ratio compares runs of the same variant.
func (b byVariant) ratioTo(base byVariant) float64 {
	t, n := 0.0, 0
	for v, xs := range b {
		if ys, ok := base[v]; ok {
			t += ratio(median(xs), median(ys))
			n++
		}
	}
	return ratio(t, float64(n))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
