package core

import (
	"context"
	"strings"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/metrics"
	"javasim/internal/sched"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// TestPlanRejectsUnknownPolicyNames checks that bad policy names surface
// at validation (and therefore load) time, naming the known set.
func TestPlanRejectsUnknownPolicyNames(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"override lock policy", func(p *Plan) {
			p.Scenarios[0].Overrides = &ConfigOverrides{LockPolicy: "no-such-policy"}
		}},
		{"override placement", func(p *Plan) {
			p.Scenarios[0].Overrides = &ConfigOverrides{Placement: "no-such-placement"}
		}},
		{"plan lock policy", func(p *Plan) { p.LockPolicy = "no-such-policy" }},
		{"plan placement", func(p *Plan) { p.Placement = "no-such-placement" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlan()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("unknown policy name validated")
			}
			if !strings.Contains(err.Error(), "no-such-") || !strings.Contains(err.Error(), "known:") {
				t.Errorf("error %q does not name the offender and the known set", err)
			}
		})
	}
	// The built-in names validate, at both levels.
	p := testPlan()
	p.LockPolicy = locks.PolicySpinThenPark
	p.Placement = sched.PlacementRoundRobin
	p.Scenarios[0].Overrides = &ConfigOverrides{
		LockPolicy: locks.PolicyRestricted, Placement: sched.PlacementLeastLoaded,
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid policy names rejected: %v", err)
	}
}

// TestPlanPolicyInheritance checks the config a scenario actually runs
// under: plan-level defaults apply to every scenario, and per-scenario
// overrides win.
func TestPlanPolicyInheritance(t *testing.T) {
	plan := &Plan{
		Name:       "policy-inheritance",
		Seed:       7,
		Scale:      0.02,
		LockPolicy: locks.PolicyBarging,
		Placement:  sched.PlacementRoundRobin,
		Scenarios: []Scenario{
			{Name: "inherits", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2}},
			{Name: "overrides", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2},
				Overrides: &ConfigOverrides{LockPolicy: locks.PolicyRestricted, Placement: sched.PlacementAffinity}},
		},
	}
	eng := NewEngine()
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	inherited := pr.Scenario("inherits").Sweep().Points[0].Result
	if inherited.LockPolicy != locks.PolicyBarging || inherited.Placement != sched.PlacementRoundRobin {
		t.Errorf("inherited run labeled %s/%s, want barging/round-robin",
			inherited.LockPolicy, inherited.Placement)
	}
	overridden := pr.Scenario("overrides").Sweep().Points[0].Result
	if overridden.LockPolicy != locks.PolicyRestricted || overridden.Placement != sched.PlacementAffinity {
		t.Errorf("overridden run labeled %s/%s, want restricted/affinity",
			overridden.LockPolicy, overridden.Placement)
	}
}

// TestPolicyTagLabeling pins the series-labeling rule: default policies
// stay untagged (the golden artifacts depend on it), non-default ones
// self-identify in factor rows and compare headers.
func TestPolicyTagLabeling(t *testing.T) {
	cases := []struct {
		lock, place, want string
	}{
		{locks.PolicyFIFO, sched.PlacementAffinity, ""},
		{locks.PolicyRestricted, sched.PlacementAffinity, "restricted"},
		{locks.PolicyFIFO, sched.PlacementRoundRobin, "fifo/round-robin"},
		{locks.PolicyBarging, sched.PlacementLeastLoaded, "barging/least-loaded"},
	}
	for _, tc := range cases {
		r := defaultResult()
		r.LockPolicy, r.Placement = tc.lock, tc.place
		if got := policyTag(r); got != tc.want {
			t.Errorf("policyTag(%q, %q) = %q, want %q", tc.lock, tc.place, got, tc.want)
		}
	}

	base, mod := defaultResult(), defaultResult()
	mod.LockPolicy = locks.PolicyRestricted
	tbl := renderCompareColumns([]string{"baseline", "modified"}, []*vm.Result{base, mod})
	if tbl.Headers[1] != "baseline" || tbl.Headers[2] != "modified [restricted]" {
		t.Errorf("compare headers = %v", tbl.Headers)
	}
}

// defaultResult is a result fixture that ran under the default policies
// and machine, carrying their resolved names as every vm.Result does.
func defaultResult() *vm.Result {
	return &vm.Result{
		LockPolicy: locks.PolicyFIFO,
		Placement:  sched.PlacementAffinity,
		GCPolicy:   gc.PolicyStwSerial,
		Machine:    machine.DefaultModel,
		Lifespans:  metrics.NewHistogram("t"),
	}
}
