package metrics

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram("test")
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1 << 20} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if h.Min() != 0 || h.Max() != 1<<20 {
		t.Errorf("Min/Max = %d/%d, want 0/%d", h.Min(), h.Max(), 1<<20)
	}
	wantSum := int64(0 + 1 + 2 + 3 + 100 + 1000 + 1<<20)
	if h.Sum() != wantSum {
		t.Errorf("Sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative sample")
		}
	}()
	NewHistogram("x").Add(-1)
}

func TestFractionBelow(t *testing.T) {
	h := NewHistogram("lifespans")
	// 80 samples at 100 bytes, 20 samples at 1MB.
	h.AddN(100, 80)
	h.AddN(1<<20, 20)
	got := h.FractionBelow(1024)
	if math.Abs(got-0.8) > 0.01 {
		t.Errorf("FractionBelow(1KB) = %v, want ~0.8", got)
	}
	if got := h.FractionBelow(1 << 30); got != 1 {
		t.Errorf("FractionBelow(1GB) = %v, want 1", got)
	}
	if got := h.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v, want 0", got)
	}
}

func TestFractionBelowInterpolation(t *testing.T) {
	h := NewHistogram("x")
	// All samples in bucket [512, 1024); asking for 768 should interpolate
	// to roughly half.
	h.AddN(600, 100)
	got := h.FractionBelow(768)
	if got <= 0.2 || got >= 0.8 {
		t.Errorf("interpolated FractionBelow(768) = %v, want mid-range", got)
	}
}

func TestFractionBelowEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if got := h.FractionBelow(100); got != 0 {
		t.Errorf("empty histogram FractionBelow = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	h := NewHistogram("p")
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	p50 := h.Percentile(50)
	// Within-bucket interpolation lands close to the exact rank even
	// though the buckets are powers of two.
	if p50 < 450 || p50 > 550 {
		t.Errorf("P50 = %d, want within [450,550]", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 900 || p99 > 1000 {
		t.Errorf("P99 = %d, want within [900,1000]", p99)
	}
	if h.Percentile(50) > h.Percentile(99) {
		t.Error("percentiles not monotone")
	}
	if h.Percentile(0) != h.Min() {
		t.Error("P0 != min")
	}
	if h.Percentile(100) != h.Max() {
		t.Error("P100 != max")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	a.AddN(10, 5)
	b.AddN(1000, 5)
	a.Merge(b)
	if a.Total() != 10 {
		t.Errorf("merged total = %d, want 10", a.Total())
	}
	if a.Max() != 1000 || a.Min() != 10 {
		t.Errorf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestBuckets(t *testing.T) {
	h := NewHistogram("b")
	h.Add(0)
	h.Add(3)
	h.Add(3)
	h.Add(1000)
	bks := h.Buckets()
	var total int64
	for _, b := range bks {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
	for i := 1; i < len(bks); i++ {
		if bks[i].UpperBound <= bks[i-1].UpperBound {
			t.Error("buckets not ascending")
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	h := NewHistogram("cdf")
	for i := 0; i < 1000; i++ {
		h.Add(int64(i * 7 % 5000))
	}
	limits := []int64{64, 256, 1024, 4096, 16384}
	cdf := h.CDF(limits)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Errorf("CDF not monotone at %d: %v", i, cdf)
		}
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram("lifetimes")
	h.AddN(100, 10)
	s := h.String()
	if !strings.Contains(s, "lifetimes") || !strings.Contains(s, "n=10") {
		t.Errorf("String() = %q missing fields", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("Stddev = %v, want sqrt(2.5)", s.Stddev)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary has N != 0")
	}
}

func TestPercentileOf(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := PercentileOf(xs, 50); math.Abs(p-55) > 1e-9 {
		t.Errorf("P50 = %v, want 55", p)
	}
	if p := PercentileOf(xs, 100); p != 100 {
		t.Errorf("P100 = %v", p)
	}
	if p := PercentileOf(nil, 50); p != 0 {
		t.Errorf("P50 of empty = %v", p)
	}
}

// Property: FractionBelow is monotone in the limit and bounded in [0,1].
func TestFractionBelowProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram("q")
		for _, v := range vals {
			h.Add(int64(v))
		}
		prev := -1.0
		for _, lim := range []int64{1, 16, 256, 4096, 1 << 16, 1 << 24, 1 << 33} {
			fb := h.FractionBelow(lim)
			if fb < 0 || fb > 1 || fb < prev {
				return false
			}
			prev = fb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two histograms preserves total count and sum.
func TestMergeConservationProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		ha, hb := NewHistogram("a"), NewHistogram("b")
		var sum int64
		for _, v := range a {
			ha.Add(int64(v))
			sum += int64(v)
		}
		for _, v := range b {
			hb.Add(int64(v))
			sum += int64(v)
		}
		ha.Merge(hb)
		return ha.Total() == int64(len(a)+len(b)) && ha.Sum() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKSDistance(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	// Identical distributions: distance 0.
	for i := 0; i < 100; i++ {
		a.Add(int64(i * 13 % 500))
		b.Add(int64(i * 13 % 500))
	}
	if d := KSDistance(a, b); d != 0 {
		t.Errorf("identical KS = %v, want 0", d)
	}
	// Fully disjoint distributions: distance ~1.
	c, d := NewHistogram("c"), NewHistogram("d")
	c.AddN(10, 100)
	d.AddN(1<<30, 100)
	if ks := KSDistance(c, d); ks < 0.99 {
		t.Errorf("disjoint KS = %v, want ~1", ks)
	}
	// Symmetry.
	if KSDistance(c, d) != KSDistance(d, c) {
		t.Error("KS not symmetric")
	}
	// Empty histograms are distance 0 from each other.
	if ks := KSDistance(NewHistogram("e"), NewHistogram("f")); ks != 0 {
		t.Errorf("empty KS = %v", ks)
	}
}

// TestKSDistanceMatchesFractionBelow checks the one-pass KSDistance
// bit for bit against its definition, the largest gap between two
// FractionBelow calls at each power of two, on random histograms whose
// samples span every bucket (AddN gives buckets counts up to 2^40).
func TestKSDistanceMatchesFractionBelow(t *testing.T) {
	ksByFractionBelow := func(a, b *Histogram) float64 {
		max := 0.0
		for i := 0; i <= 62; i++ {
			d := math.Abs(a.FractionBelow(int64(1)<<i) - b.FractionBelow(int64(1)<<i))
			if d > max {
				max = d
			}
		}
		return max
	}
	rng := rand.New(rand.NewPCG(1, 2))
	fill := func(h *Histogram) {
		for range rng.IntN(20) {
			v := rng.Int64N(math.MaxInt64) >> rng.IntN(63)
			h.AddN(v, 1+rng.Int64N(int64(1)<<rng.IntN(41)))
		}
	}
	for trial := range 2000 {
		a, b := NewHistogram("a"), NewHistogram("b")
		fill(a)
		fill(b)
		got, want := KSDistance(a, b), ksByFractionBelow(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: KSDistance = %v, FractionBelow gaps give %v", trial, got, want)
		}
	}
}

// Property: KS distance is bounded in [0,1] and zero against itself.
func TestKSDistanceProperty(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := NewHistogram("a"), NewHistogram("b")
		for _, v := range as {
			a.Add(int64(v))
		}
		for _, v := range bs {
			b.Add(int64(v))
		}
		ks := KSDistance(a, b)
		if ks < 0 || ks > 1 {
			return false
		}
		return KSDistance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
