// Package metrics provides the measurement math used by the experiments:
// logarithmic histograms, empirical CDFs, summary statistics, and
// speedup/efficiency calculations.
//
// The paper reports object lifespans as cumulative distributions over
// power-of-two byte buckets ("% of objects with lifespan < 1KB"); Histogram
// and its CDF methods reproduce exactly that computation.
package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram counts int64 samples in power-of-two buckets: bucket i holds
// values v with 2^(i-1) <= v < 2^i (bucket 0 holds v == 0). It answers
// "what fraction of samples fall below X bytes" queries in O(buckets).
type Histogram struct {
	name    string
	counts  [65]int64
	total   int64
	sum     int64
	min     int64
	max     int64
	hasData bool
}

// NewHistogram creates an empty histogram labeled name.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Add records one sample. Negative samples are a measurement bug and panic.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative sample %d in %q", v, h.name))
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if !h.hasData || v < h.min {
		h.min = v
	}
	if !h.hasData || v > h.max {
		h.max = v
	}
	h.hasData = true
}

// AddN records the same sample n times.
func (h *Histogram) AddN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative sample %d in %q", v, h.name))
	}
	h.counts[bucketOf(v)] += n
	h.total += n
	h.sum += v * n
	if !h.hasData || v < h.min {
		h.min = v
	}
	if !h.hasData || v > h.max {
		h.max = v
	}
	h.hasData = true
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int64 { return h.max }

// FractionBelow returns the fraction of samples strictly below limit,
// interpolating linearly inside the bucket containing limit. This is the
// paper's "% of objects with lifespan < 1KB" metric.
func (h *Histogram) FractionBelow(limit int64) float64 {
	if h.total == 0 || limit <= 0 {
		return 0
	}
	b := bucketOf(limit)
	var below int64
	for i := 0; i < b; i++ {
		below += h.counts[i]
	}
	// Interpolate within bucket b: bucket spans [2^(b-1), 2^b).
	lo := int64(0)
	if b > 0 {
		lo = int64(1) << uint(b-1)
	}
	hi := int64(1) << uint(b)
	if limit > lo && h.counts[b] > 0 {
		frac := float64(limit-lo) / float64(hi-lo)
		below += int64(frac * float64(h.counts[b]))
	}
	return h.fractionOf(below)
}

// Percentile returns an estimate of the p-th percentile (0 < p <= 100),
// interpolating linearly inside the bucket containing the target rank
// (the same within-bucket model as FractionBelow) and clamping to the
// observed [min, max]. Without interpolation every answer is a power of
// two, which quantizes latency tails far too coarsely to compare.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := float64(h.total) * p / 100
	var cum int64
	for i, c := range h.counts {
		if float64(cum+c) >= target && c > 0 {
			// Bucket i spans [2^(i-1), 2^i); bucket 0 is the single value 0.
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := int64(1) << uint(i)
			frac := (target - float64(cum)) / float64(c)
			est := int64(float64(lo) + frac*float64(hi-lo))
			return max(h.min, min(h.max, est))
		}
		cum += c
	}
	return h.max
}

// Buckets returns the non-empty buckets as (upperBound, count) pairs in
// ascending order. Bucket 0 is reported with upper bound 1.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		ub := int64(1)
		if i > 0 {
			ub = int64(1) << uint(i)
		}
		out = append(out, Bucket{UpperBound: ub, Count: c})
	}
	return out
}

// Bucket is one histogram bin: Count samples with value < UpperBound (and
// >= the previous bucket's bound).
type Bucket struct {
	UpperBound int64
	Count      int64
}

// AppendBinary implements encoding.BinaryAppender with the histogram's
// full internal state, so a round trip reproduces it exactly
// (reflect.DeepEqual): the name, total, sum, min and max, a has-data
// byte, and the non-empty buckets as (index byte, varint count) pairs
// after a one-byte count.
func (h *Histogram) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(h.name)))
	b = append(b, h.name...)
	for _, v := range [...]int64{h.total, h.sum, h.min, h.max} {
		b = binary.AppendVarint(b, v)
	}
	var hasData, buckets byte
	if h.hasData {
		hasData = 1
	}
	for _, c := range h.counts {
		if c != 0 {
			buckets++
		}
	}
	b = append(b, hasData, buckets)
	for i, c := range h.counts {
		if c != 0 {
			b = binary.AppendVarint(append(b, byte(i)), c)
		}
	}
	return b, nil
}

// errBinary reports a histogram encoding that AppendBinary cannot have
// produced.
var errBinary = errors.New("metrics: malformed binary histogram")

// UnmarshalBinary restores a histogram encoded by AppendBinary,
// replacing the receiver's state. Truncated input, trailing bytes and
// bucket indexes outside the fixed range are errors, so a damaged store
// entry surfaces as a decode error (which readers treat as a cache miss).
func (h *Histogram) UnmarshalBinary(data []byte) error {
	*h = Histogram{}
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return errBinary
	}
	h.name, data = string(data[k:k+int(n)]), data[k+int(n):]
	for _, p := range [...]*int64{&h.total, &h.sum, &h.min, &h.max} {
		if *p, k = binary.Varint(data); k <= 0 {
			return errBinary
		}
		data = data[k:]
	}
	if len(data) < 2 || data[0] > 1 {
		return errBinary
	}
	h.hasData = data[0] == 1
	buckets := int(data[1])
	data = data[2:]
	for range buckets {
		if len(data) == 0 || int(data[0]) >= len(h.counts) {
			return errBinary
		}
		i := data[0]
		if h.counts[i], k = binary.Varint(data[1:]); k <= 0 {
			return errBinary
		}
		data = data[1+k:]
	}
	if len(data) != 0 {
		return errBinary
	}
	return nil
}

// Merge adds every sample of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if !h.hasData || other.min < h.min {
		h.min = other.min
	}
	if !h.hasData || other.max > h.max {
		h.max = other.max
	}
	h.hasData = true
}

// CDF evaluates the cumulative distribution at each of the given limits and
// returns the fractions. Limits must be ascending.
func (h *Histogram) CDF(limits []int64) []float64 {
	out := make([]float64, len(limits))
	for i, l := range limits {
		out[i] = h.FractionBelow(l)
	}
	return out
}

// String renders a compact table of the distribution for logs and reports.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.1f min=%d max=%d\n", h.name, h.total, h.Mean(), h.min, h.max)
	for _, bk := range h.Buckets() {
		fmt.Fprintf(&b, "  < %-12d %8d (%.1f%%)\n", bk.UpperBound, bk.Count,
			100*float64(bk.Count)/float64(h.total))
	}
	return b.String()
}

// KSDistance returns the Kolmogorov-Smirnov statistic between the
// empirical distributions of two histograms: the maximum absolute CDF
// difference, evaluated on the shared power-of-two grid. It quantifies
// distribution shifts — e.g. how far a lifespan distribution moved between
// thread counts — in a single [0,1] number.
//
// It makes one pass over running prefix counts. FractionBelow(2^i) never
// interpolates, because 2^i is the lower bound of bucket i+1, so it is
// exactly the count of buckets 0..i over the total, as computed here.
func KSDistance(a, b *Histogram) float64 {
	max := 0.0
	var belowA, belowB int64
	for i := 0; i <= 62; i++ {
		belowA += a.counts[i]
		belowB += b.counts[i]
		d := a.fractionOf(belowA) - b.fractionOf(belowB)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// fractionOf is below samples as a fraction of the total, as
// FractionBelow computes it.
func (h *Histogram) fractionOf(below int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(min(below, h.total)) / float64(h.total)
}

// Summary holds basic descriptive statistics of a float64 sample set.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// PercentileOf returns the p-th percentile of xs (exact, by sorting a
// copy). p is in (0, 100].
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	idx := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return cp[lo]
	}
	frac := idx - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}
