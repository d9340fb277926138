// Package core is the reproduction's primary contribution: the
// scalability-factor analysis framework from "Factors Affecting Scalability
// of Multithreaded Java Applications on Manycore Systems" (Qian et al.,
// ISPASS 2015).
//
// It sweeps a workload across thread/core counts on the simulated JVM,
// splits execution into mutator and GC time, tracks the lock and
// object-lifespan profiles, classifies applications as scalable or
// non-scalable by the paper's operational definition, and decomposes the
// observed scaling loss into the paper's factors: sequential fraction,
// lock contention, GC share growth, lifespan shift, and work imbalance.
//
// Experiments are data: a Scenario declares one experiment (workload
// reference, thread counts, config overrides, repeats, outputs), a Plan
// is an ordered set of scenarios plus cross-scenario reports, and
// Engine.RunPlan executes the whole matrix through the engine's bounded
// pool and memoizing cache. Plans round-trip through JSON, and the
// paper's own figure suite is the built-in PaperPlan.
package core

import (
	"javasim/internal/fit"
	"javasim/internal/metrics"
	"javasim/internal/sim"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// DefaultThreadCounts is the paper's sweep: threads = enabled cores, from
// 4 up to the full 48-core machine.
var DefaultThreadCounts = []int{4, 8, 16, 24, 32, 48}

// DefaultOpenThreads is the server-pool size of an open-system rate sweep
// when neither the traffic spec nor the base config picks one.
const DefaultOpenThreads = 16

// SweepConfig drives one workload across thread counts, or — when Rates
// is set — across offered request rates at a fixed server-pool size.
type SweepConfig struct {
	// ThreadCounts to sweep; nil means DefaultThreadCounts. Ignored when
	// Rates is set.
	ThreadCounts []int
	// Rates switches the sweep to the open-system axis: each point runs
	// Base.Traffic's arrival process at one offered rate (requests/second)
	// with Base.Threads servers (DefaultOpenThreads when zero). Base.Traffic
	// must name an open arrival process.
	Rates []float64
	// Base is the VM configuration template; Threads/Cores (thread sweeps)
	// or Traffic.RatePerSec (rate sweeps) are overridden per point.
	Base vm.Config
}

func (c SweepConfig) threadCounts() []int {
	if len(c.ThreadCounts) == 0 {
		return DefaultThreadCounts
	}
	return c.ThreadCounts
}

// Point is one sweep measurement.
type Point struct {
	Threads int
	// Rate is the offered request rate of an open-system point
	// (requests/second); 0 on closed-loop thread-sweep points.
	Rate   float64
	Result *vm.Result
}

// Sweep is a workload's measurements across thread counts (closed-loop)
// or offered rates (open-system), ascending.
type Sweep struct {
	Spec   workload.Spec
	Points []Point
	// key digests the points' fingerprints, in order (see sweepKey); it
	// is "" when a point was not cacheable. The artifact memo keys
	// rendered tables by it.
	key string
}

// Open reports whether the sweep varied offered rate rather than thread
// count. Open sweeps feed goodput reports; the scalability analyses
// (Curve, Classify, ComputeFactors) assume thread sweeps.
func (s *Sweep) Open() bool { return len(s.Points) > 0 && s.Points[0].Rate > 0 }

// Curve returns the total-execution-time scaling curve.
func (s *Sweep) Curve() metrics.ScalingCurve {
	var c metrics.ScalingCurve
	for _, p := range s.Points {
		c = append(c, metrics.ScalingPoint{Threads: p.Threads, Seconds: p.Result.TotalTime.Seconds()})
	}
	return c
}

// MutatorSeconds returns per-point mutator time in seconds.
func (s *Sweep) MutatorSeconds() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Result.MutatorTime.Seconds()
	}
	return out
}

// GCSeconds returns per-point GC (stop-the-world) time in seconds.
func (s *Sweep) GCSeconds() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Result.GCTime.Seconds()
	}
	return out
}

// Acquisitions returns the Figure 1a series.
func (s *Sweep) Acquisitions() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = float64(p.Result.LockAcquisitions)
	}
	return out
}

// Contentions returns the Figure 1b series.
func (s *Sweep) Contentions() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = float64(p.Result.LockContentions)
	}
	return out
}

// CDFBelow returns, per point, the fraction of object lifespans below the
// given byte limit — the Figure 1c/1d statistic.
func (s *Sweep) CDFBelow(limit int64) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Result.Lifespans.FractionBelow(limit)
	}
	return out
}

// Throughputs returns per-point throughput in work units per virtual
// second — the axis the analytic scalability models fit. The absolute
// unit is arbitrary (the fitted scale lambda absorbs it); only the shape
// across thread counts matters.
func (s *Sweep) Throughputs() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		var units int64
		for _, u := range p.Result.PerThreadUnits {
			units += u
		}
		if secs := p.Result.TotalTime.Seconds(); secs > 0 {
			out[i] = float64(units) / secs
		}
	}
	return out
}

// FitUSL fits the Universal Scalability Law and the Amdahl special case
// to the sweep's throughput curve, selecting between them by residual —
// the analytic counterpart to ComputeFactors' ablation-style
// decomposition (sigma tracks the lock-contention factors, kappa the
// coherency-flavored ones: GC growth, bandwidth, placement).
func (s *Sweep) FitUSL() (fit.Fit, error) {
	threads := make([]int, len(s.Points))
	for i, p := range s.Points {
		threads[i] = p.Threads
	}
	pts, err := fit.Series(threads, s.Throughputs())
	if err != nil {
		return fit.Fit{}, err
	}
	return fit.Both(pts)
}

// DefaultSpeedupThreshold is the end-of-sweep speedup separating scalable
// from non-scalable applications in Classify: the paper's scalable trio
// gains 3-5x from 4 to 48 threads, while the non-scalable trio stays
// within 1.2x, so a 2x threshold splits them with wide margin.
const DefaultSpeedupThreshold = 2.0

// Classification is the §II-C verdict for one workload.
type Classification struct {
	Name string
	// Scalable is the measured verdict.
	Scalable bool
	// PaperScalable is the paper's published classification.
	PaperScalable bool
	// MaxSpeedup and AtThreads locate the best point of the curve.
	MaxSpeedup float64
	AtThreads  int
	// FinalEfficiency is parallel efficiency at the largest thread count.
	FinalEfficiency float64
}

// Matches reports whether the measured verdict agrees with the paper.
func (c Classification) Matches() bool { return c.Scalable == c.PaperScalable }

// Classify applies the paper's scalability definition to the sweep:
// minSpeedup is the speedup its largest thread count must reach over its
// smallest (see metrics.ScalingCurve.IsScalable and
// DefaultSpeedupThreshold).
func (s *Sweep) Classify(minSpeedup float64) Classification {
	curve := s.Curve()
	eff := curve.Efficiency()
	sp, at := curve.MaxSpeedup()
	return Classification{
		Name:            s.Spec.Name,
		Scalable:        curve.IsScalable(minSpeedup),
		PaperScalable:   workload.Scalable(s.Spec.Name),
		MaxSpeedup:      sp,
		AtThreads:       at,
		FinalEfficiency: eff[len(eff)-1],
	}
}

// Factors decomposes the scaling behavior into the paper's contributing
// factors, each a dimensionless "how much did this grow across the sweep"
// statistic.
type Factors struct {
	// SequentialFraction is the Amdahl fit of the total-time curve.
	SequentialFraction float64
	// AcquisitionGrowth is acquisitions(last)/acquisitions(first) — Fig 1a.
	AcquisitionGrowth float64
	// ContentionGrowth is contentions(last)/contentions(first) — Fig 1b.
	ContentionGrowth float64
	// GCShareFirst/Last track how much of total time GC consumed — Fig 2.
	GCShareFirst float64
	GCShareLast  float64
	// GCTimeGrowth is gc(last)/gc(first) in absolute time.
	GCTimeGrowth float64
	// LifespanShift is the drop (in CDF points) of the fraction of objects
	// dying within 1KB, first to last — Fig 1c/1d.
	LifespanShift float64
	// LifespanKS is the Kolmogorov-Smirnov distance between the first and
	// last points' full lifespan distributions — the whole-distribution
	// version of LifespanShift.
	LifespanKS float64
	// Top4Share is the fraction of work executed by the four busiest
	// threads at the largest thread count — the §III distribution check.
	Top4Share float64
	// ReadyWaitShare is time threads spent runnable-but-descheduled as a
	// fraction of total CPU demand at the last point — the suspension
	// pressure the paper ties to lifespan stretching.
	ReadyWaitShare float64
	// BandwidthShare is aggregate memory-channel stall across all threads
	// as a fraction of aggregate thread-time (threads x total time) at the
	// largest thread count — the bandwidth-saturation term. Zero on
	// machines without a SocketBandwidth ceiling.
	BandwidthShare float64
}

// ComputeFactors derives the factor decomposition from the sweep.
func (s *Sweep) ComputeFactors() Factors {
	f := Factors{
		SequentialFraction: s.Curve().AmdahlFit(),
		AcquisitionGrowth:  metrics.GrowthFactor(s.Acquisitions()),
		ContentionGrowth:   metrics.GrowthFactor(s.Contentions()),
		GCTimeGrowth:       metrics.GrowthFactor(s.GCSeconds()),
	}
	first, last := s.Points[0].Result, s.Points[len(s.Points)-1].Result
	f.GCShareFirst = first.GCShare()
	f.GCShareLast = last.GCShare()
	cdf := s.CDFBelow(1024)
	f.LifespanShift = cdf[0] - cdf[len(cdf)-1]
	f.LifespanKS = metrics.KSDistance(first.Lifespans, last.Lifespans)

	shares := make([]float64, len(last.PerThreadUnits))
	for i, u := range last.PerThreadUnits {
		shares[i] = float64(u)
	}
	f.Top4Share = metrics.TopKShare(shares, 4)

	var cpu, wait sim.Time
	for i := range last.PerThreadCPU {
		cpu += last.PerThreadCPU[i]
		wait += last.PerThreadReadyWait[i]
	}
	if cpu+wait > 0 {
		f.ReadyWaitShare = float64(wait) / float64(cpu+wait)
	}
	if last.TotalTime > 0 && last.Threads > 0 {
		f.BandwidthShare = float64(last.MemBWStall) / (float64(last.TotalTime) * float64(last.Threads))
	}
	return f
}
