package sim

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random source used by every stochastic
// component in the simulator. It combines a SplitMix64 seeding stage with a
// xoshiro256** generator, giving high-quality streams that can be forked
// into statistically independent child streams — one per thread, lock, or
// workload — so that adding a consumer never perturbs the draws seen by
// another.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed expander; it is the standard Vigna mixer.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed. Two generators built from
// the same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent child stream labeled by label. Children with
// distinct labels are decorrelated from each other and from the parent, and
// forking does not consume parent state, so component construction order
// cannot perturb the parent's stream.
func (r *Rand) Fork(label uint64) *Rand {
	seed := r.s[0] ^ (r.s[2] * 0x9e3779b97f4a7c15)
	x := seed ^ (label+1)*0xd1342543de82ef95
	child := &Rand{}
	for i := range child.s {
		child.s[i] = splitmix64(&x)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return child
}

// Clone returns an independent generator positioned at exactly the same
// point in the stream: the clone and the original produce identical
// future draws, then diverge as each is advanced separately. Snapshots
// use this to capture a stream's position so replayed runs can resume
// live drawing bit-identically to a run that never replayed.
func (r *Rand) Clone() *Rand {
	c := &Rand{}
	c.s = r.s
	return c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with n <= 0")
	}
	if n == 1 {
		return 0
	}
	max := uint64(1)<<63 - 1 - (uint64(1)<<63)%uint64(n)
	v := r.Uint64() >> 1
	for v > max {
		v = r.Uint64() >> 1
	}
	return int64(v % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 { return mean * r.ExpFloat64() }

// NormFloat64 returns a standard normal value via the Marsaglia polar
// method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal value where the underlying normal has the
// given mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials; the mean is (1-p)/p.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("sim: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent s.
// Rank 0 is the most popular. The sampler precomputes the CDF, so it suits
// the moderate n (thread or lock counts) used by the workload models.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Clone returns a sampler sharing the immutable CDF but drawing from an
// independent clone of the underlying stream, positioned identically.
func (z *Zipf) Clone() *Zipf {
	return &Zipf{cdf: z.cdf, r: z.r.Clone()}
}

// Next returns the next rank.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
