package core

import (
	"context"
	"strings"
	"testing"

	"javasim/internal/metrics"
	"javasim/internal/report"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// testEngine is shared by the tests that only need a memoizing engine,
// so the points their plans and sweeps have in common simulate once.
var testEngine = NewEngine()

// testSweep runs a reduced-scale sweep for unit tests.
func testSweep(t *testing.T, name string, counts []int) *Sweep {
	t.Helper()
	spec, err := workload.Registry.Get(name)
	if err != nil {
		t.Fatalf("unknown workload %s", name)
	}
	sw, err := testEngine.Sweep(context.Background(), spec.Scale(0.08), SweepConfig{
		ThreadCounts: counts,
		Base:         vm.Config{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestRunSweepBasics(t *testing.T) {
	sw := testSweep(t, "xalan", []int{2, 4, 8})
	if len(sw.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(sw.Points))
	}
	for i, p := range sw.Points {
		if p.Result == nil || p.Result.Threads != p.Threads {
			t.Errorf("point %d inconsistent", i)
		}
	}
	curve := sw.Curve()
	if len(curve) != 3 || curve[0].Threads != 2 {
		t.Errorf("curve = %+v", curve)
	}
	if len(sw.MutatorSeconds()) != 3 || len(sw.GCSeconds()) != 3 ||
		len(sw.Acquisitions()) != 3 || len(sw.Contentions()) != 3 {
		t.Error("series lengths wrong")
	}
}

func TestClassifyScalableAndNot(t *testing.T) {
	x := testSweep(t, "xalan", []int{2, 8, 16}).Classify(DefaultSpeedupThreshold)
	if !x.Scalable {
		t.Errorf("xalan classified non-scalable: %+v", x)
	}
	if !x.Matches() {
		t.Error("xalan verdict does not match paper")
	}
	j := testSweep(t, "jython", []int{2, 8, 16}).Classify(DefaultSpeedupThreshold)
	if j.Scalable {
		t.Errorf("jython classified scalable: %+v", j)
	}
	if !j.Matches() {
		t.Error("jython verdict does not match paper")
	}
}

func TestComputeFactors(t *testing.T) {
	sw := testSweep(t, "xalan", []int{2, 8, 16})
	f := sw.ComputeFactors()
	if f.AcquisitionGrowth < 1 {
		t.Errorf("xalan acquisition growth %v < 1", f.AcquisitionGrowth)
	}
	if f.ContentionGrowth <= 1 {
		t.Errorf("xalan contention growth %v <= 1", f.ContentionGrowth)
	}
	if f.SequentialFraction < 0 || f.SequentialFraction > 0.3 {
		t.Errorf("xalan amdahl fit %v outside plausible range", f.SequentialFraction)
	}
	if f.Top4Share <= 0 || f.Top4Share > 1 {
		t.Errorf("top4 share %v", f.Top4Share)
	}
	if f.ReadyWaitShare < 0 || f.ReadyWaitShare > 1 {
		t.Errorf("ready-wait share %v", f.ReadyWaitShare)
	}
}

// TestSuiteCachesSweeps checks that a repeated paper-suite run returns
// the memoized results of its sweeps and names no unknown workload.
func TestSuiteCachesSweeps(t *testing.T) {
	p := PaperPlan(ExperimentConfig{
		ThreadCounts: []int{2, 4},
		Scale:        0.02,
		Workloads:    []workload.Spec{workload.XalanSpec()},
	})
	a, err := testEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range b.Scenario("xalan").Sweep().Points {
		if pt.Result != a.Scenario("xalan").Sweep().Points[i].Result {
			t.Errorf("sweep point %d not cached", i)
		}
	}
	if b.Scenario("nope") != nil {
		t.Error("unknown workload accepted")
	}
}

// TestSuiteDefaults checks the defaults the paper suite's zero config
// resolves to.
func TestSuiteDefaults(t *testing.T) {
	cfg := ExperimentConfig{}.withDefaults()
	if cfg.Scale != 1 || cfg.Seed != 42 || len(cfg.Workloads) != 6 {
		t.Errorf("defaults = %+v", cfg)
	}
	if len(cfg.ThreadCounts) != len(DefaultThreadCounts) {
		t.Error("default thread counts not applied")
	}
}

func smallConfig(counts ...int) ExperimentConfig {
	if len(counts) == 0 {
		counts = []int{2, 4, 8}
	}
	return ExperimentConfig{
		ThreadCounts: counts,
		Scale:        0.04,
		Seed:         13,
	}
}

// paperReport renders the named PaperPlan report at cfg, simulating
// through the shared test engine only the sweeps it reads.
func paperReport(t *testing.T, cfg ExperimentConfig, name string) *report.Table {
	t.Helper()
	p, err := PaperPlan(cfg).Select(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := testEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Reports[0]
}

func TestFig1aTable(t *testing.T) {
	tb := paperReport(t, smallConfig(), "Fig1a")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	if !strings.Contains(tb.Title, "1a") {
		t.Error("title missing figure id")
	}
	out := tb.String()
	for _, w := range []string{"xalan", "jython", "t=2", "t=8"} {
		if !strings.Contains(out, w) {
			t.Errorf("table missing %q", w)
		}
	}
}

func TestFig1bTable(t *testing.T) {
	tb := paperReport(t, smallConfig(), "Fig1b")
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestFig1cdTables(t *testing.T) {
	c := paperReport(t, smallConfig(), "Fig1c")
	if !strings.Contains(c.Title, "eclipse") {
		t.Error("Fig1c is not eclipse")
	}
	d := paperReport(t, smallConfig(), "Fig1d")
	if !strings.Contains(d.Title, "xalan") {
		t.Error("Fig1d is not xalan")
	}
	if len(d.Rows) != len(cdfLimits) {
		t.Errorf("cdf rows = %d, want %d", len(d.Rows), len(cdfLimits))
	}
}

func TestLifespanCDFUnknownThreads(t *testing.T) {
	p, err := PaperPlan(smallConfig()).Select("Fig1d")
	if err != nil {
		t.Fatal(err)
	}
	p.Reports[0].LowThreads, p.Reports[0].HighThreads = 3, 999
	if _, err := testEngine.RunPlan(context.Background(), p); err == nil {
		t.Error("bogus thread counts accepted")
	}
}

func TestFig2Table(t *testing.T) {
	tb := paperReport(t, smallConfig(), "Fig2")
	// Scalable trio x 3 thread counts.
	if len(tb.Rows) != 9 {
		t.Errorf("rows = %d, want 9", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "gc-share") {
		t.Error("missing gc-share column")
	}
}

func TestClassificationTable(t *testing.T) {
	out := paperReport(t, smallConfig(2, 8, 16), "ClassificationTable").String()
	if strings.Contains(out, "NO") {
		t.Errorf("classification mismatch with paper:\n%s", out)
	}
}

func TestWorkDistributionTable(t *testing.T) {
	tb := paperReport(t, smallConfig(2, 8, 16), "WorkDistributionTable")
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestFactorsTable(t *testing.T) {
	tb := paperReport(t, smallConfig(), "FactorsTable")
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestAblations(t *testing.T) {
	bias := paperReport(t, smallConfig(2, 8), "AblationBias")
	if len(bias.Rows) == 0 || !strings.Contains(bias.Title, "xalan") {
		t.Error("bias ablation malformed")
	}
	comp := paperReport(t, smallConfig(2, 8), "AblationCompartments")
	if len(comp.Rows) == 0 {
		t.Error("compartment ablation malformed")
	}
}

func TestAllArtifacts(t *testing.T) {
	pr, err := testEngine.RunPlan(context.Background(), PaperPlan(smallConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// 10 historical artifacts plus the USLFitTable (the 3-point sweep is
	// long enough to fit).
	if len(pr.Reports) != 11 {
		t.Errorf("artifacts = %d, want 11", len(pr.Reports))
	}
	for _, tb := range pr.Reports {
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Errorf("empty artifact %q", tb.Title)
		}
	}
}

// TestPaperShapes is the integration acceptance test: at reduced scale,
// every experiment must reproduce the paper's qualitative findings (the
// E1-E9 criteria in DESIGN.md, relaxed to the reduced sweep).
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs full workloads; skipped in -short")
	}
	// The classification table reads exactly the six workload sweeps.
	p, err := PaperPlan(ExperimentConfig{
		ThreadCounts: []int{4, 16, 32},
		Scale:        0.3,
		Seed:         42,
	}).Select("ClassificationTable")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := testEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(name string) *Sweep { return pr.Scenario(name).Sweep() }

	// E6: classification matches the paper for all six benchmarks.
	for _, w := range workload.PaperSet() {
		c := sweep(w.Name).Classify(DefaultSpeedupThreshold)
		if !c.Matches() {
			t.Errorf("E6 %s: verdict %v, paper says %v (max speedup %.2fx)",
				w.Name, c.Scalable, c.PaperScalable, c.MaxSpeedup)
		}
	}

	scalable := []string{"sunflow", "lusearch", "xalan"}
	nonScalable := []string{"h2", "eclipse", "jython"}

	// E1/E2: lock acquisitions and contentions grow for scalable apps,
	// stay near-flat for non-scalable ones.
	for _, name := range scalable {
		sw := sweep(name)
		if g := metrics.GrowthFactor(sw.Acquisitions()); g < 1.15 {
			t.Errorf("E1 %s: acquisition growth %.2fx, want >= 1.15x", name, g)
		}
		if g := metrics.GrowthFactor(sw.Contentions()); g < 2 {
			t.Errorf("E2 %s: contention growth %.2fx, want >= 2x", name, g)
		}
	}
	for _, name := range nonScalable {
		sw := sweep(name)
		if g := metrics.GrowthFactor(sw.Acquisitions()); g > 1.3 {
			t.Errorf("E1 %s: acquisition growth %.2fx, want flat (<1.3x)", name, g)
		}
		if g := metrics.GrowthFactor(sw.Contentions()); g > 2 {
			t.Errorf("E2 %s: contention growth %.2fx, want near-flat", name, g)
		}
	}

	// E3: eclipse's lifetime CDF at 1KB moves < 5 points.
	ec := sweep("eclipse")
	ecCDF := ec.CDFBelow(1024)
	if d := ecCDF[0] - ecCDF[len(ecCDF)-1]; d > 0.05 || d < -0.05 {
		t.Errorf("E3 eclipse: CDF@1KB shifted %.1f points, want |shift| < 5", 100*d)
	}

	// E4: xalan's CDF@1KB declines by >= 10 points over the sweep.
	xa := sweep("xalan")
	xaCDF := xa.CDFBelow(1024)
	if d := xaCDF[0] - xaCDF[len(xaCDF)-1]; d < 0.10 {
		t.Errorf("E4 xalan: CDF@1KB declined only %.1f points (%.2f -> %.2f), want >= 10",
			100*d, xaCDF[0], xaCDF[len(xaCDF)-1])
	}
	if xaCDF[0] < 0.60 {
		t.Errorf("E4 xalan: CDF@1KB at 4 threads %.2f, want >= 0.60", xaCDF[0])
	}

	// E5: for the scalable trio, mutator time decreases monotonically and
	// GC time grows.
	for _, name := range scalable {
		sw := sweep(name)
		if !metrics.MonotoneDecreasing(sw.MutatorSeconds(), 0.02) {
			t.Errorf("E5 %s: mutator time not decreasing: %v", name, sw.MutatorSeconds())
		}
		gcs := sw.GCSeconds()
		if g := metrics.GrowthFactor(gcs); g < 1.05 {
			t.Errorf("E5 %s: GC time growth %.2fx, want > 1.05x: %v", name, g, gcs)
		}
		f := sw.ComputeFactors()
		if f.GCShareLast <= f.GCShareFirst {
			t.Errorf("E5 %s: GC share did not grow (%.3f -> %.3f)",
				name, f.GCShareFirst, f.GCShareLast)
		}
	}

	// E7: work distribution — non-scalable apps concentrate work.
	for _, name := range nonScalable {
		sw := sweep(name)
		if f := sw.ComputeFactors(); f.Top4Share < 0.7 {
			t.Errorf("E7 %s: top-4 share %.2f, want >= 0.7", name, f.Top4Share)
		}
	}
	for _, name := range scalable {
		sw := sweep(name)
		last := sw.Points[len(sw.Points)-1].Result
		shares := make([]float64, len(last.PerThreadUnits))
		for i, u := range last.PerThreadUnits {
			shares[i] = float64(u)
		}
		if r := metrics.ImbalanceRatio(shares); r > 2 {
			t.Errorf("E7 %s: imbalance %.2f, want <= 2 (near-uniform)", name, r)
		}
	}
}
