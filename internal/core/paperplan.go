package core

import (
	"fmt"
	"slices"

	"javasim/internal/fit"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// PaperPlan expresses the paper's entire figure suite — Figures 1a-1d and
// 2, the classification, work-distribution, and factor tables, and the
// two §IV ablations — as one declarative Plan: six sweep scenarios (one
// per benchmark), three single-point ablation scenarios on xalan, and ten
// cross-scenario reports. Run it whole with Engine.RunPlan, or narrow it
// to single artifacts with Plan.Select. The zero ExperimentConfig
// reproduces the paper's full-scale setup; a narrowed Workloads set drops
// the figures whose workloads it leaves out.
func PaperPlan(cfg ExperimentConfig) *Plan {
	cfg = cfg.withDefaults()
	hi := cfg.ThreadCounts[len(cfg.ThreadCounts)-1]

	p := &Plan{
		Name:         "paper",
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ThreadCounts: cfg.ThreadCounts,
	}

	// One sweep scenario per workload, named after it. Workloads matching
	// their registry entry travel as name references; custom specs inline.
	var workloadNames []string
	for _, w := range cfg.Workloads {
		ref := workload.SpecRef(w)
		if reg, ok := workload.Lookup(w.Name); ok && reg == w {
			ref = workload.NameRef(w.Name)
		}
		p.Scenarios = append(p.Scenarios, Scenario{Name: w.Name, Workload: ref})
		workloadNames = append(workloadNames, w.Name)
	}

	// The §IV ablations: xalan at the top of the sweep, baseline against
	// each future-work proposal. The baseline point coincides with the
	// xalan sweep's last point, so the run cache serves it for free.
	p.Scenarios = append(p.Scenarios,
		Scenario{Name: "xalan-max", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi}},
		Scenario{Name: "xalan-biased", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi},
			Overrides: &ConfigOverrides{BiasGroups: 2, BiasPhase: 2 * sim.Millisecond}},
		Scenario{Name: "xalan-compartmented", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi},
			Overrides: &ConfigOverrides{Compartments: 4}},
	)

	// Figure 2 covers the scalable trio, narrowed to whichever of the
	// three the config kept. Figures whose workloads the config dropped
	// are left out, so the plan is valid for every workload subset.
	var trio []string
	for _, name := range []string{"sunflow", "lusearch", "xalan"} {
		if slices.Contains(workloadNames, name) {
			trio = append(trio, name)
		}
	}
	figures := []ReportSpec{
		{Name: "Fig1a", Kind: ReportSeries, Metric: MetricAcquisitions, Key: "workload",
			Scenarios: workloadNames,
			Title:     "Figure 1a — lock acquisitions vs threads",
			Note:      "paper: acquisitions grow with threads for scalable apps, flat for non-scalable"},
		{Name: "Fig1b", Kind: ReportSeries, Metric: MetricContentions, Key: "workload",
			Scenarios: workloadNames,
			Title:     "Figure 1b — lock contentions vs threads",
			Note:      "paper: contentions grow with threads for scalable apps, flat for non-scalable"},
		{Name: "Fig1c", Kind: ReportLifespanCDF, Scenarios: []string{"eclipse"},
			Title: "Figure 1c",
			Note:  "paper: eclipse's distribution shows almost no change with thread count"},
		{Name: "Fig1d", Kind: ReportLifespanCDF, Scenarios: []string{"xalan"},
			Title: "Figure 1d",
			Note:  "paper: xalan drops from >80% of objects <1KB at 4 threads to ~50% at 48"},
		{Name: "Fig2", Kind: ReportMutatorGC, Scenarios: trio,
			Title: "Figure 2 — distribution of mutator and GC times (scalable applications)",
			Note:  "paper: mutator time keeps falling through 48 threads while GC time grows"},
	}
	for _, rs := range figures {
		if len(rs.Scenarios) > 0 && slices.Contains(workloadNames, rs.Scenarios[0]) {
			p.Reports = append(p.Reports, rs)
		}
	}

	p.Reports = append(p.Reports, []ReportSpec{
		{Name: "ClassificationTable", Kind: ReportClassification, Scenarios: workloadNames},
		{Name: "WorkDistributionTable", Kind: ReportWorkDistribution, Scenarios: workloadNames},
		{Name: "FactorsTable", Kind: ReportFactors, Scenarios: workloadNames},
		{Name: "AblationBias", Kind: ReportCompare, Baseline: "xalan-max", Modified: "xalan-biased",
			Title: fmt.Sprintf("Ablation — phase-biased scheduling (paper §IV, suggestion 1) — xalan @ %d threads", hi),
			Note:  "paper hypothesis: staggering threads shortens lifespans and cuts contention at some throughput cost"},
		{Name: "AblationCompartments", Kind: ReportCompare, Baseline: "xalan-max", Modified: "xalan-compartmented",
			Title: fmt.Sprintf("Ablation — compartmentalized heap (paper §IV, suggestion 2) — xalan @ %d threads", hi),
			Note:  "paper hypothesis: per-group heap compartments shorten GC pause times"},
	}...)
	// The analytic cross-validation of the factor table (ROADMAP item 1):
	// fit the USL to every workload sweep and report sigma/kappa next to
	// the ablation-derived factors. A fit needs at least fit.MinPoints
	// sweep points, so shortened test configs (the 2-point golden setup)
	// keep their historical artifact set byte-identical.
	if len(cfg.ThreadCounts) >= fit.MinPoints {
		p.Reports = append(p.Reports, ReportSpec{
			Name: "USLFitTable", Kind: ReportUSL, Scenarios: workloadNames,
		})
	}
	return p
}
