// Package fit is the analytic scalability-fitting engine: it
// least-squares-fits Gunther's Universal Scalability Law
//
//	C(N) = N / (1 + sigma*(N-1) + kappa*N*(N-1))
//
// and the two-parameter Amdahl special case (kappa = 0) to a measured
// (concurrency, throughput) sweep, separating contention cost (sigma —
// the serialization the paper ablates with lock disciplines) from
// coherency cost (kappa — the pairwise-exchange term behind GC, memory
// bandwidth, and placement losses). Where the paper recovers its factor
// decomposition by ablation, the fit recovers it analytically from a
// single sweep, so the two methods cross-validate each other.
//
// Fitting is fully deterministic: closed-form seeding via the quadratic
// transform Gunther describes (regress N/C(N)-1 on (N-1) and N(N-1)),
// then a damped Gauss-Newton (Levenberg-Marquardt) refinement over
// sigma >= 0, kappa >= 0 with the throughput scale lambda profiled out
// in closed form at every step. No randomness, no iteration-order
// dependence — equal inputs produce bit-equal fits.
package fit

import (
	"fmt"
	"math"
)

// Point is one measured sweep point: throughput X at concurrency N.
type Point struct {
	// N is the concurrency (thread count) of the measurement.
	N float64
	// X is the measured throughput at N, in any consistent rate unit
	// (the fitted scale lambda absorbs the unit).
	X float64
}

// Series pairs a thread-count sweep with its measured throughputs as fit
// points. It is the adapter between the simulator's sweep shape and the
// fitter's input.
func Series(threads []int, throughput []float64) ([]Point, error) {
	if len(threads) != len(throughput) {
		return nil, fmt.Errorf("fit: %d thread counts but %d throughputs", len(threads), len(throughput))
	}
	pts := make([]Point, len(threads))
	for i := range threads {
		pts[i] = Point{N: float64(threads[i]), X: throughput[i]}
	}
	return pts, Validate(pts)
}

// MinPoints is the smallest sweep a fit accepts: with two free shape
// parameters plus the throughput scale, fewer than three points is an
// interpolation, not a fit.
const MinPoints = 3

// Validate reports why a point set cannot be fitted: fewer than
// MinPoints points, non-ascending or non-positive concurrency, or
// non-finite/non-positive throughput. Rejecting these up front is what
// keeps the solver NaN-free.
func Validate(pts []Point) error {
	if len(pts) < MinPoints {
		return fmt.Errorf("fit: need at least %d sweep points, have %d — a degenerate sweep cannot separate contention from coherency", MinPoints, len(pts))
	}
	for i, p := range pts {
		if !(p.N > 0) || math.IsInf(p.N, 0) {
			return fmt.Errorf("fit: point %d: concurrency %v is not a positive finite count", i, p.N)
		}
		if i > 0 && p.N <= pts[i-1].N {
			return fmt.Errorf("fit: point %d: concurrency must be strictly ascending (%v after %v)", i, p.N, pts[i-1].N)
		}
		if !(p.X > 0) || math.IsInf(p.X, 0) {
			return fmt.Errorf("fit: point %d: throughput %v is not a positive finite rate", i, p.X)
		}
	}
	return nil
}

// Model kinds.
const (
	// KindUSL is the full two-parameter law (sigma and kappa free).
	KindUSL = "usl"
	// KindAmdahl is the contention-only special case (kappa pinned to 0).
	KindAmdahl = "amdahl"
)

// Model is one fitted scalability law: X(N) ≈ Lambda * N / (1 +
// Sigma*(N-1) + Kappa*N*(N-1)).
type Model struct {
	// Kind is KindUSL or KindAmdahl.
	Kind string
	// Sigma is the contention (serialization) coefficient, >= 0.
	Sigma float64
	// Kappa is the coherency (pairwise-exchange) coefficient, >= 0;
	// always 0 for Amdahl models.
	Kappa float64
	// Lambda is the fitted per-unit-concurrency throughput scale — the
	// ideal single-thread throughput in the sweep's rate unit.
	Lambda float64
	// R2 is the coefficient of determination of the fit on the
	// throughput axis (1 = the model explains the sweep exactly).
	R2 float64
	// SSE is the sum of squared throughput residuals the fit minimized.
	SSE float64
}

// Predict returns the model's throughput at concurrency n.
func (m Model) Predict(n float64) float64 {
	return m.Lambda * n / uslDenom(n, m.Sigma, m.Kappa)
}

// PeakN is the predicted peak concurrency N* = floor(sqrt((1-sigma)/kappa))
// — the point past which the coherency term makes added threads
// retrograde. It returns 0 when kappa is 0 (throughput saturates but
// never rolls over, so there is no finite peak) and 1 when sigma >= 1
// (retrograde from the start).
func (m Model) PeakN() int {
	if m.Kappa <= 0 {
		return 0
	}
	if m.Sigma >= 1 {
		return 1
	}
	n := int(math.Floor(math.Sqrt((1 - m.Sigma) / m.Kappa)))
	if n < 1 {
		n = 1
	}
	return n
}

// Fit is the complete fitting result: both models plus the
// residual-based choice between them.
type Fit struct {
	// USL is the full two-parameter fit.
	USL Model
	// Amdahl is the contention-only fit (kappa = 0).
	Amdahl Model
	// Preferred is KindUSL or KindAmdahl: the USL model is preferred
	// only when its coherency term actually pays for itself — a fitted
	// kappa meaningfully above zero and a residual meaningfully below
	// Amdahl's. Otherwise the simpler model wins.
	Preferred string
}

// Best returns the preferred model.
func (f Fit) Best() Model {
	if f.Preferred == KindAmdahl {
		return f.Amdahl
	}
	return f.USL
}

// preferUSL decides the model selection: the extra kappa parameter must
// cut the residual by at least 5% (and be nonzero) to justify itself.
const (
	kappaFloor    = 1e-9
	residualGain  = 0.95
	maxIterations = 200
)

// Both fits the USL and Amdahl models and selects between them by
// residual.
func Both(pts []Point) (Fit, error) {
	usl, err := USL(pts)
	if err != nil {
		return Fit{}, err
	}
	amdahl, err := Amdahl(pts)
	if err != nil {
		return Fit{}, err
	}
	f := Fit{USL: usl, Amdahl: amdahl, Preferred: KindAmdahl}
	if usl.Kappa > kappaFloor && usl.SSE < residualGain*amdahl.SSE {
		f.Preferred = KindUSL
	}
	return f, nil
}

// USL fits the full two-parameter law.
func USL(pts []Point) (Model, error) {
	if err := Validate(pts); err != nil {
		return Model{}, err
	}
	sigma, kappa := seed(pts, true)
	sigma, kappa = refine(pts, sigma, kappa, true)
	return finish(KindUSL, pts, sigma, kappa), nil
}

// Amdahl fits the contention-only special case (kappa = 0).
func Amdahl(pts []Point) (Model, error) {
	if err := Validate(pts); err != nil {
		return Model{}, err
	}
	sigma, _ := seed(pts, false)
	sigma, _ = refine(pts, sigma, 0, false)
	return finish(KindAmdahl, pts, sigma, 0), nil
}

func uslDenom(n, sigma, kappa float64) float64 {
	return 1 + sigma*(n-1) + kappa*n*(n-1)
}

// profileLambda computes, for fixed (sigma, kappa), the closed-form
// least-squares throughput scale and the resulting residual sum — the
// variable-projection step that keeps the nonlinear search
// two-dimensional. A non-nil out receives the residual vector
// r_i = X_i - lambda*g_i; when the scale is degenerate (no g_i is
// nonzero) the residuals are taken at lambda = 0 and the sum is +Inf.
func profileLambda(pts []Point, sigma, kappa float64, out []float64) (lambda, sse float64) {
	var num, den float64
	for _, p := range pts {
		g := p.N / uslDenom(p.N, sigma, kappa)
		num += p.X * g
		den += g * g
	}
	degenerate := den <= 0
	if !degenerate {
		lambda = num / den
	}
	for i, p := range pts {
		r := p.X - lambda*p.N/uslDenom(p.N, sigma, kappa)
		if out != nil {
			out[i] = r
		}
		sse += r * r
	}
	if degenerate {
		return 0, math.Inf(1)
	}
	return lambda, sse
}

// seed derives starting (sigma, kappa) via Gunther's quadratic
// transform: estimate a linear-scaling throughput scale lambda0, form
// the capacity deficit y = lambda0*N/X - 1, and regress it on
// {1, N-1, N*(N-1)}. When the data obeys the law with true scale
// lambda, y = (rho-1) + rho*sigma*(N-1) + rho*kappa*N*(N-1) with
// rho = lambda0/lambda, so the intercept recovers the scale mismatch
// and the slope coefficients divided by rho recover sigma and kappa
// exactly on clean data.
func seed(pts []Point, withKappa bool) (sigma, kappa float64) {
	lambda0, _ := profileLambda(pts, 0, 0, nil)
	if lambda0 <= 0 {
		return 0, 0
	}
	// Normal equations for y ~ a + b*u (+ c*v); u = N-1, v = N(N-1).
	var n, su, sv, suu, suv, svv, sy, syu, syv float64
	for _, p := range pts {
		y := lambda0*p.N/p.X - 1
		u := p.N - 1
		v := p.N * (p.N - 1)
		n++
		su += u
		sv += v
		suu += u * u
		suv += u * v
		svv += v * v
		sy += y
		syu += y * u
		syv += y * v
	}
	if !withKappa {
		a, b := solve2(n, su, su, suu, sy, syu)
		rho := 1 + a
		if rho > 0 {
			sigma = b / rho
		}
		return clamp(sigma), 0
	}
	a, b, c := solve3(
		n, su, sv,
		su, suu, suv,
		sv, suv, svv,
		sy, syu, syv,
	)
	rho := 1 + a
	if rho > 0 {
		sigma, kappa = b/rho, c/rho
	}
	return clamp(sigma), clamp(kappa)
}

// solve2 solves the symmetric 2x2 system [[a11 a12][a21 a22]]x = [b1 b2].
func solve2(a11, a12, a21, a22, b1, b2 float64) (x1, x2 float64) {
	det := a11*a22 - a12*a21
	if det == 0 {
		return 0, 0
	}
	return (b1*a22 - b2*a12) / det, (a11*b2 - a21*b1) / det
}

// solve3 solves a 3x3 linear system by Cramer's rule.
func solve3(a11, a12, a13, a21, a22, a23, a31, a32, a33, b1, b2, b3 float64) (x1, x2, x3 float64) {
	det3 := func(m11, m12, m13, m21, m22, m23, m31, m32, m33 float64) float64 {
		return m11*(m22*m33-m23*m32) - m12*(m21*m33-m23*m31) + m13*(m21*m32-m22*m31)
	}
	d := det3(a11, a12, a13, a21, a22, a23, a31, a32, a33)
	if d == 0 {
		return 0, 0, 0
	}
	x1 = det3(b1, a12, a13, b2, a22, a23, b3, a32, a33) / d
	x2 = det3(a11, b1, a13, a21, b2, a23, a31, b3, a33) / d
	x3 = det3(a11, a12, b1, a21, a22, b2, a31, a32, b3) / d
	return x1, x2, x3
}

func clamp(v float64) float64 {
	if !(v > 0) { // also catches NaN
		return 0
	}
	return v
}

// refine runs Levenberg-Marquardt over (sigma, kappa) — or sigma alone —
// on the lambda-profiled residual vector r_i = X_i - lambda*g_i, with a
// forward-difference Jacobian and projection onto the non-negative
// orthant after every trial step. At most two parameters, so the normal
// equations are solved in closed form. r holds the residuals at the
// current point and rt those of the last trial step, which become r when
// the step is accepted.
func refine(pts []Point, sigma, kappa float64, withKappa bool) (float64, float64) {
	m := len(pts)
	r := make([]float64, m)
	rs := make([]float64, m)
	rk := make([]float64, m)
	rt := make([]float64, m)
	_, sse := profileLambda(pts, sigma, kappa, r)
	mu := 1e-4
	for iter := 0; iter < maxIterations; iter++ {
		hs := step(sigma)
		profileLambda(pts, sigma+hs, kappa, rs)
		hk := step(kappa)
		if withKappa {
			profileLambda(pts, sigma, kappa+hk, rk)
		}
		// Normal equations J^T J delta = -J^T r with J from forward
		// differences.
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
		_, trialSSE := profileLambda(pts, trialS, trialK, rt)
		if trialSSE < sse {
			improvement := sse - trialSSE
			sigma, kappa, sse = trialS, trialK, trialSSE
			r, rt = rt, r
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

func step(v float64) float64 {
	h := 1e-6 * math.Abs(v)
	if h < 1e-9 {
		h = 1e-9
	}
	return h
}

// finish assembles the Model record: the profiled lambda, the residual,
// and R^2 against the mean-throughput baseline.
func finish(kind string, pts []Point, sigma, kappa float64) Model {
	lambda, sse := profileLambda(pts, sigma, kappa, nil)
	var mean float64
	for _, p := range pts {
		mean += p.X
	}
	mean /= float64(len(pts))
	var sst float64
	for _, p := range pts {
		d := p.X - mean
		sst += d * d
	}
	r2 := 1.0
	switch {
	case sst > 0:
		r2 = 1 - sse/sst
	case sse > 1e-12*mean*mean:
		// A flat sweep the model misses: no variance explained.
		r2 = 0
	}
	if r2 < 0 {
		r2 = 0
	}
	return Model{Kind: kind, Sigma: sigma, Kappa: kappa, Lambda: lambda, R2: r2, SSE: sse}
}
