package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"javasim/internal/workload"
)

// testPlan is a small two-scenario plan used by the serialization tests.
func testPlan() *Plan {
	return &Plan{
		Name:         "test-plan",
		Seed:         7,
		Scale:        0.02,
		ThreadCounts: []int{2, 4},
		Scenarios: []Scenario{
			{Name: "base", Workload: workload.NameRef("xalan"), Outputs: []Output{OutputSweep}},
			{Name: "small-heap", Workload: workload.NameRef("xalan"),
				Overrides: &ConfigOverrides{HeapFactor: 1.5}},
			{Name: "inline", Workload: workload.SpecRef(workload.JythonSpec()),
				ThreadCounts: []int{2}, Repeats: 2, Outputs: []Output{OutputReplication}},
		},
		Reports: []ReportSpec{
			{Name: "gc", Kind: ReportSeries, Metric: MetricGCSeconds,
				Scenarios: []string{"base", "small-heap"}},
			{Name: "heap", Kind: ReportCompare, Baseline: "base", Modified: "small-heap",
				Title: "heap ablation"},
			{Name: "class", Kind: ReportClassification,
				Scenarios: []string{"base", "small-heap"}},
		},
	}
}

// TestPlanJSONRoundTripStable asserts encode→decode→encode is
// byte-stable, so plan files survive rewriting — for a hand-built plan
// and for StudyPlan, whose decoded copy must also render the same
// reports, so a plan file (or the daemon) can serve the studies.
func TestPlanJSONRoundTripStable(t *testing.T) {
	decoded := roundTrip(t, testPlan())
	if decoded.Scenarios[2].Workload.Spec == nil {
		t.Error("inline workload lost in round trip")
	}
	if decoded.Scenarios[1].Overrides == nil || decoded.Scenarios[1].Overrides.HeapFactor != 1.5 {
		t.Error("overrides lost in round trip")
	}

	studies := StudyPlan(studyConfig)
	var want, got bytes.Buffer
	for _, c := range []struct {
		p   *Plan
		buf *bytes.Buffer
	}{{studies, &want}, {roundTrip(t, studies), &got}} {
		pr, err := testEngine.RunPlan(context.Background(), c.p)
		if err != nil {
			t.Fatal(err)
		}
		writePlanText(t, c.buf, pr.Reports)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("decoded StudyPlan renders differently:\n--- plan\n%s\n--- decoded\n%s", want.String(), got.String())
	}
}

// roundTrip encodes p, decodes it through LoadPlan, and checks that the
// decoded plan encodes to the same bytes.
func roundTrip(t *testing.T, p *Plan) *Plan {
	t.Helper()
	var first bytes.Buffer
	if err := p.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	decoded, err := LoadPlan(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := decoded.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("encode not stable:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
	return decoded
}

// TestLoadPlanRejectsUnknownFieldsAndBadRefs checks that a plan naming a
// field the schema lacks — a typo, or a knob that became a constant —
// fails to load with an error naming it, as does a bad registry
// reference.
func TestLoadPlanRejectsUnknownFieldsAndBadRefs(t *testing.T) {
	override := func(field string) string {
		return `{"Scenarios":[{"Name":"a","Workload":"xalan","Overrides":{"` + field + `":4}}]}`
	}
	traffic := func(field string) string {
		return `{"Scenarios":[{"Name":"a","Workload":"server",` +
			`"Traffic":{"Process":"bursty","Rates":[100],"` + field + `":1}}]}`
	}
	for _, tc := range []struct{ plan, want string }{
		{`{"Scenarios":[],"Typo":1}`, "Typo"},
		{`{"Scenarios":[{"Name":"a","Workload":"no-such-workload"}]}`, "no-such-workload"},
		// The heap's generation split and the arrival shapes are fixed.
		{override("NewRatio"), "NewRatio"},
		{override("SurvivorRatio"), "SurvivorRatio"},
		{traffic("BurstFactor"), "BurstFactor"},
		{traffic("BurstOnFraction"), "BurstOnFraction"},
		{traffic("BurstPeriod"), "BurstPeriod"},
		{traffic("DiurnalPeriod"), "DiurnalPeriod"},
		{traffic("DiurnalAmplitude"), "DiurnalAmplitude"},
	} {
		_, err := LoadPlan(strings.NewReader(tc.plan))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadPlan(%s) error = %v, want one naming %q", tc.plan, err, tc.want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		warp func(*Plan)
		want string
	}{
		{"no scenarios", func(p *Plan) { p.Scenarios = nil }, "no scenarios"},
		{"empty scenario name", func(p *Plan) { p.Scenarios[0].Name = "" }, "empty name"},
		{"duplicate scenario", func(p *Plan) { p.Scenarios[1].Name = "base" }, "duplicate scenario"},
		{"bad thread count", func(p *Plan) { p.Scenarios[0].ThreadCounts = []int{0} }, "thread count"},
		{"descending thread counts", func(p *Plan) {
			p.Scenarios[0].ThreadCounts = []int{8, 4}
		}, "strictly ascending"},
		{"duplicate thread counts", func(p *Plan) { p.ThreadCounts = []int{4, 4} }, "strictly ascending"},
		{"bad scale", func(p *Plan) { p.Scenarios[0].Scale = 1.5 }, "scale"},
		{"unknown output", func(p *Plan) { p.Scenarios[0].Outputs = []Output{"bogus"} }, "unknown output"},
		{"replication needs repeats", func(p *Plan) {
			p.Scenarios[0].Outputs = []Output{OutputReplication}
		}, "Repeats >= 2"},
		{"bad override", func(p *Plan) {
			p.Scenarios[1].Overrides = &ConfigOverrides{GCTriggerRatio: 2}
		}, "overrides"},
		{"unknown report kind", func(p *Plan) { p.Reports[0].Kind = "bogus" }, "unknown kind"},
		{"unknown metric", func(p *Plan) { p.Reports[0].Metric = "bogus" }, "unknown metric"},
		{"report on unknown scenario", func(p *Plan) {
			p.Reports[0].Scenarios = []string{"ghost"}
		}, "unknown scenario"},
		{"compare missing sides", func(p *Plan) { p.Reports[1].Modified = "" }, "Baseline and Modified"},
		{"duplicate report", func(p *Plan) { p.Reports[1].Name = "gc" }, "duplicate report"},
		{"series over mismatched counts", func(p *Plan) {
			p.Scenarios[1].ThreadCounts = []int{4}
		}, "share thread counts"},
		{"cdf threads not in sweep", func(p *Plan) {
			p.Reports = append(p.Reports, ReportSpec{Name: "cdf", Kind: ReportLifespanCDF,
				Scenarios: []string{"base"}, LowThreads: 3})
		}, "not in scenario"},
		{"metric on non-series report", func(p *Plan) {
			p.Reports[1].Metric = MetricGCSeconds
		}, "only applies to"},
		{"baseline on series report", func(p *Plan) {
			p.Reports[0].Baseline = "base"
		}, "only applies to"},
		{"compare over mismatched maxima", func(p *Plan) {
			p.Scenarios[1].ThreadCounts = []int{2}
			p.Reports[0].Scenarios = []string{"base"} // keep the series report legal
		}, "largest points"},
		{"replication report over one run", func(p *Plan) {
			p.Reports = append(p.Reports, ReportSpec{Name: "rep", Kind: ReportReplication,
				Scenarios: []string{"base"}})
		}, "replication report needs Repeats >= 2"},
		{"rows over mismatched maxima", func(p *Plan) {
			p.Scenarios[1].ThreadCounts = []int{2}
			p.Reports = []ReportSpec{{Name: "rows", Kind: ReportRows,
				Scenarios: []string{"base", "small-heap"}}}
		}, "rows report contrasts the largest points"},
		{"bias phase without groups", func(p *Plan) {
			p.Scenarios[1].Overrides = &ConfigOverrides{BiasPhase: 100}
		}, "BiasPhase set without BiasGroups"},
		{"unknown plan machine", func(p *Plan) { p.Machine = "vax-780" }, "unknown machine model"},
		{"unknown override machine", func(p *Plan) {
			p.Scenarios[1].Overrides = &ConfigOverrides{Machine: "vax-780"}
		}, "unknown machine model"},
		// Rejection messages must teach the schema: every "unknown X"
		// error lists the valid values, sorted.
		{"unknown output lists valid outputs", func(p *Plan) {
			p.Scenarios[0].Outputs = []Output{"bogus"}
		}, "(known: classification, factors, goodput, lifespan-cdf, replication, sweep, usl)"},
		{"unknown kind lists valid kinds", func(p *Plan) {
			p.Reports[0].Kind = "bogus"
		}, "(known: classification, compare, factors, goodput, lifespan-cdf, mutator-gc, replication, rows, series, usl, work-distribution)"},
		{"unknown metric lists valid metrics", func(p *Plan) {
			p.Reports[0].Metric = "bogus"
		}, "(known: acquisitions, cdf-below-1kb, contentions, gc-seconds, gc-share, mutator-seconds, total-seconds)"},
		// The fitter needs fit.MinPoints sweep points; shorter sweeps must
		// die at validation, not as NaN mid-plan.
		{"usl output over short sweep", func(p *Plan) {
			p.Scenarios[0].Outputs = []Output{OutputUSL} // plan sweeps only {2, 4}
		}, "usl output needs at least"},
		{"usl report over short sweep", func(p *Plan) {
			p.Reports = append(p.Reports, ReportSpec{Name: "usl", Kind: ReportUSL,
				Scenarios: []string{"base"}})
		}, "separate contention from coherency"},
		{"usl report over rate sweep", func(p *Plan) {
			p.Scenarios = append(p.Scenarios, Scenario{Name: "open",
				Workload: workload.NameRef("server"),
				Traffic:  &TrafficSpec{Process: "poisson", Rates: []float64{100, 200}}})
			p.Reports = append(p.Reports, ReportSpec{Name: "usl", Kind: ReportUSL,
				Scenarios: []string{"open"}})
		}, "reads thread sweeps"},
		{"usl output on traffic scenario", func(p *Plan) {
			p.Scenarios = append(p.Scenarios, Scenario{Name: "open",
				Workload: workload.NameRef("server"),
				Traffic:  &TrafficSpec{Process: "poisson", Rates: []float64{100, 200}},
				Outputs:  []Output{OutputUSL}})
		}, "Traffic scenarios render"},
	}
	for _, tc := range cases {
		p := testPlan()
		tc.warp(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := testPlan().Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestRunPlanMemoization asserts that overlapping scenarios share
// simulations through the engine's run cache: two scenarios describing
// the same (workload, config, threads) points simulate each point once.
func TestRunPlanMemoization(t *testing.T) {
	eng := NewEngine(WithParallelism(2))
	p := &Plan{
		Seed:         5,
		Scale:        0.02,
		ThreadCounts: []int{2, 4},
		Scenarios: []Scenario{
			{Name: "a", Workload: workload.NameRef("xalan")},
			{Name: "b", Workload: workload.NameRef("xalan")}, // identical matrix
		},
	}
	pr, err := eng.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != 2 {
		t.Errorf("simulations = %d, want 2 (two unique points)", st.Misses)
	}
	if hits := st.MemoryHits + st.DiskHits + st.Shared; hits != 2 {
		t.Errorf("cache hits = %d, want 2 (scenario b served from cache/singleflight)", hits)
	}
	// The shared points are literally the same memoized results.
	a, b := pr.Scenario("a").Sweep(), pr.Scenario("b").Sweep()
	for i := range a.Points {
		if a.Points[i].Result != b.Points[i].Result {
			t.Errorf("point %d not shared between overlapping scenarios", i)
		}
	}
}

func TestRunPlanOutputsReportsAndEvents(t *testing.T) {
	// Observers must be concurrency-safe: scenarios emit ScenarioDone
	// from the plan's parallel goroutines.
	var mu sync.Mutex
	var scenarios, artifacts, plans int
	eng := NewEngine(WithObserver(ObserverFunc(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case ScenarioDone:
			scenarios++
		case ArtifactRendered:
			artifacts++
		case PlanDone:
			plans++
		}
	})))
	pr, err := eng.RunPlan(context.Background(), testPlan())
	if err != nil {
		t.Fatal(err)
	}
	if scenarios != 3 || artifacts != 3 || plans != 1 {
		t.Errorf("events: scenarios=%d artifacts=%d plans=%d", scenarios, artifacts, plans)
	}
	if got := len(pr.Tables()); got != 5 {
		t.Errorf("tables = %d, want 5 (2 outputs + 3 reports)", got)
	}
	if pr.Reports[1].Title != "heap ablation" {
		t.Errorf("report title = %q", pr.Reports[1].Title)
	}
	// Cross-scenario rows are labeled by scenario name, so two scenarios
	// of the same workload stay distinguishable.
	if class := pr.Reports[2]; class.Rows[0][0] != "base" || class.Rows[1][0] != "small-heap" {
		t.Errorf("classification row labels = %q, %q; want scenario names",
			class.Rows[0][0], class.Rows[1][0])
	}
	if inline := pr.Scenario("inline"); len(inline.Sweeps) != 2 {
		t.Errorf("inline repeats = %d, want 2", len(inline.Sweeps))
	} else if inline.Sweeps[0].Points[0].Result == inline.Sweeps[1].Points[0].Result {
		t.Error("derived-seed repeats returned the identical result")
	}
	if pr.Scenario("ghost") != nil {
		t.Error("unknown scenario lookup returned non-nil")
	}
}

func TestRunPlanCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(WithParallelism(1))
	if _, err := eng.RunPlan(ctx, testPlan()); err == nil {
		t.Error("canceled plan succeeded")
	}
}

// TestPaperPlanShape checks the built-in plan covers the full artifact
// suite and round-trips through JSON like any user plan.
func TestPaperPlanShape(t *testing.T) {
	p := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02, Seed: 1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Scenarios) != 9 { // six workloads + three ablation scenarios
		t.Errorf("scenarios = %d, want 9", len(p.Scenarios))
	}
	wantReports := []string{"Fig1a", "Fig1b", "Fig1c", "Fig1d", "Fig2",
		"ClassificationTable", "WorkDistributionTable", "FactorsTable",
		"AblationBias", "AblationCompartments"}
	if len(p.Reports) != len(wantReports) {
		t.Fatalf("reports = %d, want %d", len(p.Reports), len(wantReports))
	}
	for i, w := range wantReports {
		if p.Reports[i].Name != w {
			t.Errorf("report %d = %q, want %q", i, p.Reports[i].Name, w)
		}
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bytes.NewReader(data)); err != nil {
		t.Errorf("paper plan does not round-trip: %v", err)
	}

	// At three or more thread counts the plan grows the USL fit table;
	// the two-count variant above must stay at the historical report set
	// so its golden artifacts remain byte-identical.
	p3 := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4, 8}, Scale: 0.02, Seed: 1})
	if err := p3.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p3.Reports) != len(wantReports)+1 {
		t.Fatalf("3-count reports = %d, want %d", len(p3.Reports), len(wantReports)+1)
	}
	if last := p3.Reports[len(p3.Reports)-1]; last.Name != "USLFitTable" || last.Kind != ReportUSL {
		t.Errorf("3-count plan last report = %q kind %q, want USLFitTable/usl", last.Name, last.Kind)
	}
}

// TestPlanSelect checks, at the historical 2-point sweep and at a
// 3-point sweep, that selecting any one PaperPlan report renders the
// bytes of that report in a full run while simulating only the points of
// the scenarios it names, and that an unknown name is rejected.
func TestPlanSelect(t *testing.T) {
	ctx := context.Background()
	for _, counts := range [][]int{{2, 4}, {2, 4, 8}} {
		paper := PaperPlan(ExperimentConfig{ThreadCounts: counts, Scale: 0.02, Seed: 99})
		full, err := NewEngine().RunPlan(ctx, paper)
		if err != nil {
			t.Fatal(err)
		}
		for i := range paper.Reports {
			rs := &paper.Reports[i]
			p, err := paper.Select(rs.Name)
			if err != nil {
				t.Fatalf("%v %s: %v", counts, rs.Name, err)
			}
			obs := newCountingObserver()
			pr, err := NewEngine(WithObserver(obs)).RunPlan(ctx, p)
			if err != nil {
				t.Fatalf("%v %s: %v", counts, rs.Name, err)
			}
			var selected, whole bytes.Buffer
			if err := pr.Reports[0].WriteASCII(&selected); err != nil {
				t.Fatal(err)
			}
			if err := full.Reports[i].WriteASCII(&whole); err != nil {
				t.Fatal(err)
			}
			if len(pr.Reports) != 1 || !bytes.Equal(selected.Bytes(), whole.Bytes()) {
				t.Errorf("%v %s: selected plan rendered %d reports, first:\n%s\nwant:\n%s",
					counts, rs.Name, len(pr.Reports), selected.String(), whole.String())
			}
			// No two scenarios of one PaperPlan report share a point, so
			// the selection simulates exactly their summed sweep points.
			var names []string
			points := 0
			for j := range p.Scenarios {
				names = append(names, p.Scenarios[j].Name)
				points += len(p.Scenarios[j].threadCounts(p))
			}
			if want := paper.reportScenarios(rs); !slices.Equal(names, want) {
				t.Errorf("%v %s: selected scenarios %v, want %v", counts, rs.Name, names, want)
			}
			if got := obs.count(RunStarted); got != points {
				t.Errorf("%v %s: simulated %d points, want %d", counts, rs.Name, got, points)
			}
		}
	}
	paper := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02})
	if _, err := paper.Select("Fig1a", "Fig9"); err == nil || !strings.Contains(err.Error(), "Fig1a") {
		t.Errorf("unknown report: err = %v, want one listing the known reports", err)
	}
}

// TestPaperPlanEveryWorkloadSubset checks that PaperPlan stays valid and
// runnable for the full paper set and for every one-workload subset,
// keeping each figure exactly when the workloads it draws on are kept.
func TestPaperPlanEveryWorkloadSubset(t *testing.T) {
	subsets := [][]workload.Spec{workload.PaperSet()}
	for _, w := range workload.PaperSet() {
		subsets = append(subsets, []workload.Spec{w})
	}
	for _, ws := range subsets {
		cfg := ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02, Workloads: ws}
		p := PaperPlan(cfg)
		if err := p.Validate(); err != nil {
			t.Errorf("%d workloads from %s: %v", len(ws), ws[0].Name, err)
			continue
		}
		if _, err := testEngine.RunPlan(context.Background(), p); err != nil {
			t.Errorf("%d workloads from %s: %v", len(ws), ws[0].Name, err)
		}
		kept := func(names ...string) bool {
			return slices.ContainsFunc(ws, func(w workload.Spec) bool { return slices.Contains(names, w.Name) })
		}
		for report, want := range map[string]bool{
			"Fig1a": true, "Fig1c": kept("eclipse"), "Fig1d": kept("xalan"),
			"Fig2": kept("sunflow", "lusearch", "xalan"), "AblationBias": true,
		} {
			if got := p.report(report) != nil; got != want {
				t.Errorf("%d workloads from %s: has %s = %v, want %v", len(ws), ws[0].Name, report, got, want)
			}
		}
	}
}
