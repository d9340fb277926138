package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across seeds; streams correlated", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	c1again := parent.Fork(1)
	// Same label twice gives the same stream; different labels differ.
	for i := 0; i < 100; i++ {
		v1, v1b := c1.Uint64(), c1again.Uint64()
		if v1 != v1b {
			t.Fatal("Fork with same label is not reproducible")
		}
		if v1 == c2.Uint64() {
			t.Fatal("Fork with different labels produced equal draws")
		}
	}
}

func TestForkDoesNotPerturbParent(t *testing.T) {
	a := NewRand(9)
	b := NewRand(9)
	_ = a.Fork(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forking consumed parent state")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestInt63nBounds(t *testing.T) {
	r := NewRand(4)
	for _, n := range []int64{1, 5, 1 << 40} {
		for i := 0; i < 500; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRand(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(8)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.2 {
		t.Errorf("exp mean = %v, want ~5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(10)
	sum, sumSq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(3, 1); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(13)
	p := 0.25
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := NewRand(14)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(15)
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) fired %.3f of the time", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	r := NewRand(16)
	z := NewZipf(r, 16, 1.2)
	counts := make([]int, 16)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 16 {
			t.Fatalf("Zipf rank %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[3] {
		t.Errorf("Zipf not skewed: counts %v", counts[:4])
	}
	// Rank 0 should dominate: > 25% of draws for s=1.2, n=16.
	if float64(counts[0])/n < 0.25 {
		t.Errorf("top rank only %.3f of draws", float64(counts[0])/n)
	}
}

// Property: Intn is always within bounds for arbitrary seeds and sizes.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds yield identical streams across all
// distributions (full determinism of the stochastic layer).
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 20; i++ {
			if a.Exp(3) != b.Exp(3) || a.Intn(10) != b.Intn(10) ||
				a.NormFloat64() != b.NormFloat64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
