package core

import (
	"context"
	"strings"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/locks"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// TestPlanRejectsUnknownGCPolicyNames checks that bad GC-policy names
// surface at validation (and therefore load) time, naming the known set,
// at both the plan level and inside scenario overrides.
func TestPlanRejectsUnknownGCPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Plan)
	}{
		{"override gc policy", func(p *Plan) {
			p.Scenarios[0].Overrides = &ConfigOverrides{GCPolicy: "no-such-gc"}
		}},
		{"plan gc policy", func(p *Plan) { p.GCPolicy = "no-such-gc" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlan()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("unknown gc policy validated")
			}
			if !strings.Contains(err.Error(), "no-such-gc") || !strings.Contains(err.Error(), "known:") {
				t.Errorf("error %q does not name the offender and the known set", err)
			}
		})
	}
	p := testPlan()
	p.GCPolicy = gc.PolicyStwParallel
	p.Scenarios[0].Overrides = &ConfigOverrides{GCPolicy: gc.PolicyCompartment, Compartments: 4}
	if err := p.Validate(); err != nil {
		t.Errorf("valid gc policy names rejected: %v", err)
	}
	p.Scenarios[0].Overrides = &ConfigOverrides{GCPolicy: gc.PolicyCompartment, Compartments: -1}
	if err := p.Validate(); err == nil {
		t.Error("negative Compartments override validated")
	}
}

// TestPlanGCPolicyInheritance checks the config a scenario actually runs
// under: the plan-level GC policy applies to every scenario, and
// per-scenario overrides win.
func TestPlanGCPolicyInheritance(t *testing.T) {
	plan := &Plan{
		Name:     "gc-inheritance",
		Seed:     7,
		Scale:    0.02,
		GCPolicy: gc.PolicyStwParallel,
		Scenarios: []Scenario{
			{Name: "inherits", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2}},
			{Name: "overrides", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2},
				Overrides: &ConfigOverrides{GCPolicy: gc.PolicyCompartment}},
		},
	}
	eng := NewEngine()
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Scenario("inherits").Sweep().Points[0].Result.GCPolicy; got != gc.PolicyStwParallel {
		t.Errorf("inherited run labeled %q, want stw-parallel", got)
	}
	if got := pr.Scenario("overrides").Sweep().Points[0].Result.GCPolicy; got != gc.PolicyCompartment {
		t.Errorf("overridden run labeled %q, want compartment", got)
	}
}

// TestGCPolicyTagLabeling pins the labeling rule extension: default GC
// stays untagged (the golden artifacts depend on it) and non-default GC
// appends a gc= marker after any lock/placement tag.
func TestGCPolicyTagLabeling(t *testing.T) {
	for _, tc := range []struct {
		lock, gcp, want string
	}{
		{locks.PolicyFIFO, gc.PolicyStwSerial, ""},
		{locks.PolicyFIFO, gc.PolicyConcurrent, "gc=concurrent"},
		{locks.PolicyRestricted, gc.PolicyCompartment, "restricted gc=compartment"},
	} {
		r := defaultResult()
		r.LockPolicy, r.GCPolicy = tc.lock, tc.gcp
		if got := policyTag(r); got != tc.want {
			t.Errorf("policyTag(lock=%q, gc=%q) = %q, want %q", tc.lock, tc.gcp, got, tc.want)
		}
	}
}

// TestCompareValidationVariants pins the compare report's two shapes:
// the Baseline/Modified pair, or a Scenarios list of at least two —
// never both, never a partial pair.
func TestCompareValidationVariants(t *testing.T) {
	mkPlan := func(rs ReportSpec) *Plan {
		return &Plan{
			Name: "cmp",
			Scenarios: []Scenario{
				{Name: "a", Workload: workload.NameRef("xalan")},
				{Name: "b", Workload: workload.NameRef("xalan")},
				{Name: "c", Workload: workload.NameRef("xalan")},
			},
			Reports: []ReportSpec{rs},
		}
	}
	if err := mkPlan(ReportSpec{Name: "r", Kind: ReportCompare,
		Scenarios: []string{"a", "b", "c"}}).Validate(); err != nil {
		t.Errorf("multi-scenario compare rejected: %v", err)
	}
	if err := mkPlan(ReportSpec{Name: "r", Kind: ReportCompare,
		Scenarios: []string{"a"}}).Validate(); err == nil {
		t.Error("one-scenario compare validated")
	}
	if err := mkPlan(ReportSpec{Name: "r", Kind: ReportCompare,
		Baseline: "a"}).Validate(); err == nil {
		t.Error("partial Baseline/Modified pair validated")
	}
	if err := mkPlan(ReportSpec{Name: "r", Kind: ReportCompare,
		Baseline: "a", Modified: "b", Scenarios: []string{"c"}}).Validate(); err == nil {
		t.Error("Baseline/Modified plus Scenarios validated")
	}
	// Mismatched top thread counts still fail for the list form.
	p := mkPlan(ReportSpec{Name: "r", Kind: ReportCompare, Scenarios: []string{"a", "b"}})
	p.Scenarios[1].ThreadCounts = []int{2}
	if err := p.Validate(); err == nil {
		t.Error("mismatched top thread counts validated")
	}
}

// TestRenderCompareColumns checks the multi-column compare shape: one
// column per scenario, headers carrying the runs' gc tags, and the
// per-phase GC CPU row present once any column deviates from stw-serial.
func TestRenderCompareColumns(t *testing.T) {
	mk := func(gcp string) *vm.Result {
		r := defaultResult()
		r.GCPolicy = gcp
		return r
	}
	names := []string{"serial", "parallel", "conc"}
	results := []*vm.Result{mk(gc.PolicyStwSerial), mk(gc.PolicyStwParallel), mk(gc.PolicyConcurrent)}
	tbl := renderCompareColumns(names, results)
	wantHeaders := []string{"metric", "serial", "parallel [gc=stw-parallel]", "conc [gc=concurrent]"}
	if len(tbl.Headers) != len(wantHeaders) {
		t.Fatalf("headers = %v", tbl.Headers)
	}
	for i, h := range wantHeaders {
		if tbl.Headers[i] != h {
			t.Errorf("header[%d] = %q, want %q", i, tbl.Headers[i], h)
		}
	}
	foundPhases := false
	for _, row := range tbl.Rows {
		if row[0] == "gc phases s/s/c" {
			foundPhases = true
		}
	}
	if !foundPhases {
		t.Error("per-phase GC CPU row missing from a non-default-GC compare")
	}

	// All-default columns keep the historical row set: no phases row.
	tbl = renderCompareColumns([]string{"a", "b"}, []*vm.Result{mk(gc.PolicyStwSerial), mk(gc.PolicyStwSerial)})
	for _, row := range tbl.Rows {
		if row[0] == "gc phases s/s/c" {
			t.Error("phases row rendered for all-default GC columns")
		}
	}
}
