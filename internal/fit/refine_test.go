package fit

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// profileLambdaReference is profileLambda before it learned to fill a
// residual vector: the scale and the residual sum only.
func profileLambdaReference(pts []Point, sigma, kappa float64) (lambda, sse float64) {
	var num, den float64
	for _, p := range pts {
		g := p.N / uslDenom(p.N, sigma, kappa)
		num += p.X * g
		den += g * g
	}
	if den <= 0 {
		return 0, math.Inf(1)
	}
	lambda = num / den
	for _, p := range pts {
		r := p.X - lambda*p.N/uslDenom(p.N, sigma, kappa)
		sse += r * r
	}
	return lambda, sse
}

// residualsReference is the reference's residual pass: the profiled sum,
// and, into a non-nil out, the residuals recomputed at the profiled scale.
func residualsReference(pts []Point, s, k float64, out []float64) float64 {
	lambda, sse := profileLambdaReference(pts, s, k)
	if out != nil {
		for i, p := range pts {
			out[i] = p.X - lambda*p.N/uslDenom(p.N, s, k)
		}
	}
	return sse
}

// refineReference is refine as it was before it reused residuals: every
// residual vector is recomputed after profiling, and an accepted step
// re-evaluates the trial point. refine must match it bit for bit.
func refineReference(pts []Point, sigma, kappa float64, withKappa bool) (float64, float64) {
	m := len(pts)
	r := make([]float64, m)
	rs := make([]float64, m)
	rk := make([]float64, m)
	sse := residualsReference(pts, sigma, kappa, r)
	mu := 1e-4
	for iter := 0; iter < maxIterations; iter++ {
		hs := step(sigma)
		residualsReference(pts, sigma+hs, kappa, rs)
		hk := step(kappa)
		if withKappa {
			residualsReference(pts, sigma, kappa+hk, rk)
		}
		var jss, jsk, jkk, gs, gk float64
		for i := 0; i < m; i++ {
			js := (rs[i] - r[i]) / hs
			jss += js * js
			gs += js * r[i]
			if withKappa {
				jk := (rk[i] - r[i]) / hk
				jsk += js * jk
				jkk += jk * jk
				gk += jk * r[i]
			}
		}
		var ds, dk float64
		if withKappa {
			ds, dk = solve2(jss*(1+mu), jsk, jsk, jkk*(1+mu), -gs, -gk)
		} else if jss > 0 {
			ds = -gs / (jss * (1 + mu))
		}
		trialS, trialK := clamp(sigma+ds), clamp(kappa+dk)
		trialSSE := residualsReference(pts, trialS, trialK, nil)
		if trialSSE < sse {
			improvement := sse - trialSSE
			sigma, kappa, sse = trialS, trialK, trialSSE
			residualsReference(pts, sigma, kappa, r)
			if mu > 1e-12 {
				mu /= 4
			}
			if improvement <= 1e-14*(1+sse) {
				break
			}
		} else {
			mu *= 8
			if mu > 1e12 {
				break
			}
		}
	}
	return sigma, kappa
}

// refineFixtures are the sweeps of fit_test.go — the recovery grid, its
// noisy variants, the selection, peak, flat and linear curves — plus
// random sweeps over wide thread and throughput ranges.
func refineFixtures() [][]Point {
	var out [][]Point
	for _, lambda := range []float64{1, 37.5, 1e4} {
		for _, sigma := range []float64{0, 0.005, 0.02, 0.08, 0.2, 0.5} {
			for _, kappa := range []float64{0, 1e-5, 1e-4, 1e-3, 5e-3} {
				out = append(out, synth(sweepN, lambda, sigma, kappa))
			}
		}
	}
	noise := rand.New(rand.NewSource(12345))
	for _, c := range []struct{ sigma, kappa float64 }{{0.02, 5e-4}, {0.1, 1e-3}, {0, 2e-3}, {0.05, 0}} {
		for trial := 0; trial < 5; trial++ {
			pts := synth(sweepN, 100, c.sigma, c.kappa)
			for i := range pts {
				pts[i].X *= 1 + 0.02*(2*noise.Float64()-1)
			}
			out = append(out, pts)
		}
	}
	out = append(out,
		synth(sweepN, 50, 0.1, 0), synth(sweepN, 50, 0.05, 2e-3), synth(sweepN, 80, 0.03, 1e-3),
		synth(sweepN, 42, 0.07, 3e-4), synth(sweepN, 7, 0, 0), synth(sweepN, 123, 0.04, 8e-4),
		[]Point{{1, 10}, {2, 10}, {4, 10}, {8, 10}, {16, 10}})
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < 300; i++ {
		seen := map[int]bool{}
		var threads []int
		for len(threads) < MinPoints+rng.Intn(6) {
			if n := 1 + rng.Intn(96); !seen[n] {
				seen[n] = true
				threads = append(threads, n)
			}
		}
		sort.Ints(threads)
		pts := make([]Point, len(threads))
		scale := math.Pow(10, 6*rng.Float64()-2)
		for j, n := range threads {
			pts[j] = Point{N: float64(n), X: scale * (0.05 + rng.Float64())}
		}
		out = append(out, pts)
	}
	return out
}

// TestRefineMatchesReference pins refine's reuse of profiled residuals
// as a pure speed-up: on every fixture the fitted sigma, kappa, lambda
// and SSE are bit-identical to the reference implementation's.
func TestRefineMatchesReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, pts := range refineFixtures() {
		for _, withKappa := range []bool{true, false} {
			s0, k0 := seed(pts, withKappa)
			s, k := refine(pts, s0, k0, withKappa)
			rs, rk := refineReference(pts, s0, k0, withKappa)
			got, want := finish(KindUSL, pts, s, k), finish(KindUSL, pts, rs, rk)
			if !same(got.Sigma, want.Sigma) || !same(got.Kappa, want.Kappa) ||
				!same(got.Lambda, want.Lambda) || !same(got.SSE, want.SSE) {
				t.Errorf("fixture %d (kappa %v): refine gives %+v, reference %+v", i, withKappa, got, want)
			}
		}
	}
}

// TestProfileLambdaResiduals checks the residual vector profileLambda
// fills against the reference's recomputed one, including the
// degenerate scale, where every g_i underflows and lambda stays 0.
func TestProfileLambdaResiduals(t *testing.T) {
	pts := synth(sweepN[1:], 30, 0.05, 1e-3)
	for _, c := range []struct{ sigma, kappa float64 }{{0.05, 1e-3}, {0, 0}, {1e300, 0}, {0, 1e300}} {
		out := make([]float64, len(pts))
		want := make([]float64, len(pts))
		lambda, sse := profileLambda(pts, c.sigma, c.kappa, out)
		wantLambda, wantSSE := profileLambdaReference(pts, c.sigma, c.kappa)
		residualsReference(pts, c.sigma, c.kappa, want)
		if math.Float64bits(lambda) != math.Float64bits(wantLambda) || math.Float64bits(sse) != math.Float64bits(wantSSE) {
			t.Errorf("sigma=%g kappa=%g: (lambda, sse) = (%g, %g), reference (%g, %g)",
				c.sigma, c.kappa, lambda, sse, wantLambda, wantSSE)
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Errorf("sigma=%g kappa=%g: residual %d = %g, reference %g", c.sigma, c.kappa, i, out[i], want[i])
			}
		}
	}
}
