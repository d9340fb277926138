// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation (DESIGN.md experiment index E1-E9), plus end-to-end
// VM benchmarks. Each figure benchmark regenerates its artifact at reduced
// scale and reports the figure's headline statistic via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a shape check:
//
//	E1 Fig1a  acq-growth-x      lock acquisitions, last/first thread count
//	E2 Fig1b  cont-growth-x     lock contentions, last/first
//	E3 Fig1c  cdf1k-shift-pt    eclipse CDF@1KB shift (flat expected)
//	E4 Fig1d  cdf1k-shift-pt    xalan CDF@1KB drop (large expected)
//	E5 Fig2   gc-growth-x       GC time growth for the scalable trio
//	E6 class  match-frac        classification agreement with the paper
//	E7 dist   top4-share        work concentration for non-scalable apps
//	E8/E9     ablation deltas
package javasim_test

import (
	"context"
	"testing"

	"javasim"
	"javasim/internal/metrics"
)

var benchCtx = context.Background()

// benchPaper runs the named PaperPlan reports at a reduced scale
// mirroring the paper's sweep shape; scale 0.15 keeps one full
// regeneration under a second. Each call constructs a fresh engine so
// every benchmark iteration simulates from a cold cache — otherwise the
// memoizing engine would turn iterations 2..N into cache-lookup
// measurements.
func benchPaper(b *testing.B, names ...string) *javasim.PlanResult {
	b.Helper()
	p, err := javasim.PaperPlan(javasim.ExperimentConfig{
		ThreadCounts: []int{4, 16, 48},
		Scale:        0.15,
		Seed:         42,
	}).Select(names...)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := javasim.NewEngine().RunPlan(benchCtx, p)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkFig1aLockAcquisitions regenerates Figure 1a (E1).
func BenchmarkFig1aLockAcquisitions(b *testing.B) {
	b.ReportAllocs()
	var growth float64
	for i := 0; i < b.N; i++ {
		pr := benchPaper(b, "Fig1a")
		growth = metrics.GrowthFactor(pr.Scenario("xalan").Sweep().Acquisitions())
	}
	b.ReportMetric(growth, "xalan-acq-growth-x")
}

// BenchmarkFig1bLockContentions regenerates Figure 1b (E2).
func BenchmarkFig1bLockContentions(b *testing.B) {
	b.ReportAllocs()
	var growth float64
	for i := 0; i < b.N; i++ {
		pr := benchPaper(b, "Fig1b")
		growth = metrics.GrowthFactor(pr.Scenario("xalan").Sweep().Contentions())
	}
	b.ReportMetric(growth, "xalan-cont-growth-x")
}

// BenchmarkFig1cEclipseLifetimes regenerates Figure 1c (E3).
func BenchmarkFig1cEclipseLifetimes(b *testing.B) {
	b.ReportAllocs()
	var shift float64
	for i := 0; i < b.N; i++ {
		cdf := benchPaper(b, "Fig1c").Scenario("eclipse").Sweep().CDFBelow(1024)
		shift = 100 * (cdf[0] - cdf[len(cdf)-1])
	}
	b.ReportMetric(shift, "eclipse-cdf1k-shift-pt")
}

// BenchmarkFig1dXalanLifetimes regenerates Figure 1d (E4).
func BenchmarkFig1dXalanLifetimes(b *testing.B) {
	b.ReportAllocs()
	var shift float64
	for i := 0; i < b.N; i++ {
		cdf := benchPaper(b, "Fig1d").Scenario("xalan").Sweep().CDFBelow(1024)
		shift = 100 * (cdf[0] - cdf[len(cdf)-1])
	}
	b.ReportMetric(shift, "xalan-cdf1k-shift-pt")
}

// BenchmarkFig2MutatorGC regenerates Figure 2 (E5).
func BenchmarkFig2MutatorGC(b *testing.B) {
	b.ReportAllocs()
	var gcGrowth float64
	for i := 0; i < b.N; i++ {
		pr := benchPaper(b, "Fig2")
		gcGrowth = metrics.GrowthFactor(pr.Scenario("xalan").Sweep().GCSeconds())
	}
	b.ReportMetric(gcGrowth, "xalan-gc-growth-x")
}

// BenchmarkTableClassification regenerates the §II-C table (E6).
func BenchmarkTableClassification(b *testing.B) {
	b.ReportAllocs()
	var matches float64
	for i := 0; i < b.N; i++ {
		pr := benchPaper(b, "ClassificationTable")
		matches = 0
		for _, spec := range javasim.PaperBenchmarks() {
			if pr.Scenario(spec.Name).Sweep().Classify(2.0).Matches() {
				matches++
			}
		}
		matches /= 6
	}
	b.ReportMetric(matches, "paper-match-frac")
}

// BenchmarkTableWorkDistribution regenerates the §III observation (E7).
func BenchmarkTableWorkDistribution(b *testing.B) {
	b.ReportAllocs()
	var top4 float64
	for i := 0; i < b.N; i++ {
		pr := benchPaper(b, "WorkDistributionTable")
		top4 = pr.Scenario("jython").Sweep().ComputeFactors().Top4Share
	}
	b.ReportMetric(top4, "jython-top4-share")
}

// BenchmarkAblationBiasedScheduling regenerates the §IV suggestion-1
// ablation (E8).
func BenchmarkAblationBiasedScheduling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPaper(b, "AblationBias")
	}
}

// BenchmarkAblationCompartmentHeap regenerates the §IV suggestion-2
// ablation (E9).
func BenchmarkAblationCompartmentHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPaper(b, "AblationCompartments")
	}
}

// BenchmarkVMRun measures raw simulator throughput: one xalan run per
// iteration at a fixed configuration, reporting simulated-vs-real speed.
func BenchmarkVMRun(b *testing.B) {
	b.ReportAllocs()
	spec, _ := javasim.LookupWorkload("xalan")
	spec = spec.Scale(0.1)
	eng := javasim.NewEngine(javasim.WithCache(0)) // uncached: measure simulation, not lookups
	var virtualNS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(benchCtx, spec, javasim.Config{Threads: 8, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		virtualNS = float64(res.TotalTime)
	}
	b.ReportMetric(virtualNS, "virtual-ns/run")
}

// BenchmarkSweepWarmStart measures what warm-start snapshots buy a
// sweep: the same three thread-count points cold (each through
// Engine.Run, which attaches no snapshot, so every point regenerates
// its workload units from scratch) and warm (Engine.Sweep: every point
// forks from one shared pre-generated tape). Engines are uncached so
// each iteration simulates every point, and run one point at a time so
// the gap measures warm start rather than the worker pool; warm must
// beat cold.
func BenchmarkSweepWarmStart(b *testing.B) {
	spec, _ := javasim.LookupWorkload("xalan")
	spec = spec.Scale(0.1)
	threads := []int{2, 8, 32}
	run := func(sweep func(eng *javasim.Engine) error) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := javasim.NewEngine(javasim.WithCache(0), javasim.WithParallelism(1))
				if err := sweep(eng); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cold", run(func(eng *javasim.Engine) error {
		for _, n := range threads {
			if _, err := eng.Run(benchCtx, spec, javasim.Config{Threads: n, Seed: 42}); err != nil {
				return err
			}
		}
		return nil
	}))
	b.Run("warm", run(func(eng *javasim.Engine) error {
		_, err := eng.Sweep(benchCtx, spec, javasim.SweepConfig{
			ThreadCounts: threads,
			Base:         javasim.Config{Seed: 42},
		})
		return err
	}))
}

// BenchmarkVMRunManycore exercises the full 48-core configuration.
func BenchmarkVMRunManycore(b *testing.B) {
	b.ReportAllocs()
	spec, _ := javasim.LookupWorkload("sunflow")
	spec = spec.Scale(0.1)
	eng := javasim.NewEngine(javasim.WithCache(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(benchCtx, spec, javasim.Config{Threads: 48, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
