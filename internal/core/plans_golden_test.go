package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"javasim/internal/report"
	"javasim/internal/workload"
)

// everyKindPlan declares every Output, every ReportKind, every Metric,
// and every optional ReportSpec field at least once, so the golden file
// below pins the rendered bytes of each plan artifact shape. The rows and
// replication report kinds are the exception: StudyPlan renders them, and
// studies.golden pins their bytes.
func everyKindPlan() *Plan {
	open := &TrafficSpec{Process: "poisson", Rates: []float64{100000, 1500000}, Threads: 4, Requests: 200}
	p := &Plan{
		Name:         "every-kind",
		Seed:         3,
		Scale:        0.02,
		ThreadCounts: []int{2, 4, 8},
		Scenarios: []Scenario{
			{Name: "xalan", Workload: workload.NameRef("xalan"), Outputs: []Output{
				OutputSweep, OutputClassification, OutputFactors, OutputLifespanCDF, OutputUSL}},
			{Name: "xalan-rep", Workload: workload.NameRef("xalan"), Repeats: 2,
				Outputs: []Output{OutputReplication}},
			{Name: "xalan-restricted", Workload: workload.NameRef("xalan"),
				Overrides: &ConfigOverrides{LockPolicy: "restricted", GCPolicy: "stw-parallel"}},
			{Name: "open", Workload: workload.NameRef("server"), Scale: 0.2, Traffic: open, Repeats: 2,
				Outputs: []Output{OutputGoodput, OutputReplication}},
		},
		Reports: []ReportSpec{
			{Name: "cdf", Kind: ReportLifespanCDF, Scenarios: []string{"xalan"},
				Title: "Panel", Note: "low vs high", LowThreads: 2, HighThreads: 8},
			{Name: "cdf-default", Kind: ReportLifespanCDF, Scenarios: []string{"xalan-restricted"}},
			{Name: "mutator-gc", Kind: ReportMutatorGC, Scenarios: []string{"xalan", "xalan-restricted"}},
			{Name: "classification", Kind: ReportClassification, Scenarios: []string{"xalan", "xalan-restricted"}},
			{Name: "work", Kind: ReportWorkDistribution, Scenarios: []string{"xalan"}},
			{Name: "factors", Kind: ReportFactors, Scenarios: []string{"xalan", "xalan-restricted"},
				Title: "Factors", Note: "titled"},
			{Name: "pair", Kind: ReportCompare, Baseline: "xalan", Modified: "xalan-restricted"},
			{Name: "columns", Kind: ReportCompare, Scenarios: []string{"xalan", "xalan-rep", "xalan-restricted"},
				Title: "Three columns", Note: "multi-column"},
			{Name: "goodput", Kind: ReportGoodput, Scenarios: []string{"open"}, Note: "one rate grid"},
			{Name: "usl", Kind: ReportUSL, Scenarios: []string{"xalan", "xalan-restricted"}},
		},
	}
	for _, m := range []Metric{MetricAcquisitions, MetricContentions, MetricTotalSeconds,
		MetricMutatorSeconds, MetricGCSeconds, MetricGCShare, MetricCDFBelow1KB} {
		rs := ReportSpec{Name: "series-" + string(m), Kind: ReportSeries, Metric: m,
			Scenarios: []string{"xalan", "xalan-restricted"}}
		if m == MetricGCShare {
			rs.Key, rs.Title, rs.Note = "run", "GC share", "keyed"
		}
		p.Reports = append(p.Reports, rs)
	}
	return p
}

// writePlanText appends a plan's tables the way `javasim -plan` prints
// them: every table, blank-line separated.
func writePlanText(t *testing.T, buf *bytes.Buffer, tables []*report.Table) {
	t.Helper()
	for i, tb := range tables {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := tb.WriteASCII(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenPlans locks the text artifacts of every testdata plan file,
// of a plan exercising every output, report kind, metric, and optional
// report field, and of single PaperPlan reports selected on a narrowed
// workload set (including the selection error of a figure it drops). Run
// `go test ./internal/core/ -run TestGoldenPlans -update` to accept a
// deliberate change.
func TestGoldenPlans(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	section := func(name string) { buf.WriteString("=== " + name + " ===\n") }

	names, list := testdataPlans(t)
	plans := map[string]*Plan{}
	for i, name := range names {
		plans[name] = list[i]
	}
	plans["every-kind"] = everyKindPlan()
	names = append(names, "every-kind")
	for _, name := range names {
		pr, err := NewEngine().RunPlan(ctx, plans[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		section(name)
		writePlanText(t, &buf, pr.Tables())
	}

	xalan, _ := workload.Registry.Get("xalan")
	paper := PaperPlan(ExperimentConfig{
		ThreadCounts: []int{2, 4}, Scale: 0.02, Seed: 5, Workloads: []workload.Spec{xalan}})
	eng := NewEngine()
	for _, name := range []string{"Fig1a", "Fig2", "FactorsTable", "Fig1c"} {
		section("paper[xalan]." + name)
		p, err := paper.Select(name)
		if err != nil {
			buf.WriteString("error: " + err.Error() + "\n")
			continue
		}
		pr, err := eng.RunPlan(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		writePlanText(t, &buf, pr.Reports)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing — run with -update to create it: %v", err)
	}
	if !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("plan output changed at line %d:\n got: %s\nwant: %s\n(run with -update to accept)",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("plan output length changed: got %d lines, want %d (run with -update to accept)",
			len(gotLines), len(wantLines))
	}
}
