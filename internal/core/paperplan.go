package core

import (
	"fmt"
	"slices"

	"javasim/internal/fit"
	"javasim/internal/gc"
	"javasim/internal/machine"
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
		if reg, err := workload.Registry.Get(w.Name); err == nil && reg == w {
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

// StudyPlan expresses the seven design-choice studies as one declarative
// Plan. They are not paper artifacts: each varies one of the simulator's
// own knobs — most of them held fixed by the paper's methodology — to
// validate that the cost models respond the way the real mechanisms do.
// Every scenario is one knob setting at the top of the config's thread
// sweep, where every GC effect is strongest, and each study is one
// report, StudyHeapFactor … StudyReplication in that order; narrow the
// plan to one with Plan.Select. The config's Workloads are ignored:
// every study runs its own registry workload.
func StudyPlan(cfg ExperimentConfig) *Plan {
	cfg = cfg.withDefaults()
	hi := cfg.ThreadCounts[len(cfg.ThreadCounts)-1]
	p := &Plan{
		Name:         "studies",
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ThreadCounts: []int{hi},
	}
	scenario := func(wl, name string, o *ConfigOverrides) Scenario {
		return Scenario{Name: name, Workload: workload.NameRef(wl), Overrides: o}
	}
	// study adds the scenarios and a rows report over them.
	study := func(rs ReportSpec, scs ...Scenario) {
		rs.Kind = ReportRows
		for _, sc := range scs {
			p.Scenarios = append(p.Scenarios, sc)
			rs.Scenarios = append(rs.Scenarios, sc.Name)
		}
		p.Reports = append(p.Reports, rs)
	}
	var heap, workers, tenuring []Scenario
	for _, f := range []float64{1.5, 2, 3, 4, 6} {
		heap = append(heap, scenario("xalan", fmt.Sprintf("heap-%.1fx", f), &ConfigOverrides{HeapFactor: f}))
	}
	for _, w := range []int{1, 2, 4, 8, 16, 33} {
		workers = append(workers, scenario("xalan", fmt.Sprintf("workers-%d", w), &ConfigOverrides{GCWorkers: w}))
	}
	for _, th := range []int{1, 2, 4, 8} {
		tenuring = append(tenuring, scenario("xalan", fmt.Sprintf("tenure-%d", th), &ConfigOverrides{TenuringThreshold: th}))
	}

	// The heap-size multiple is the paper's "3x the minimum heap" (§II-C):
	// shrinking it multiplies collections, growing it buys them back.
	study(ReportSpec{Name: "StudyHeapFactor",
		Title: fmt.Sprintf("Study — heap factor sweep (xalan @ %d threads)", hi),
		Note:  "the paper runs everything at 3x the minimum heap; the GC time/space trade-off validates the heap model"},
		heap...)
	// HotSpot defaults to 33 parallel GC workers on the 48-core testbed.
	study(ReportSpec{Name: "StudyGCWorkers",
		Title: fmt.Sprintf("Study — GC worker sweep (xalan @ %d threads)", hi),
		Note:  "pause time divides across workers with contention-limited efficiency, never linearly"},
		workers...)
	// Promote-early floods the old generation, promote-late recopies
	// survivors: the paper's survivor-copying story (§III-B).
	study(ReportSpec{Name: "StudyTenuring",
		Title: fmt.Sprintf("Study — tenuring threshold sweep (xalan @ %d threads)", hi)},
		tenuring...)
	study(ReportSpec{Name: "StudyNUMA",
		Title: fmt.Sprintf("Study — NUMA vs flat memory (xalan @ %d threads)", hi),
		Note:  "the paper's testbed pays cross-socket latency above 12 threads; a flat machine is the counterfactual"},
		scenario("xalan", "numa", nil),
		scenario("xalan", "flat", &ConfigOverrides{Machine: machine.ModelOpteronFlat}))
	// The server workload is the application class the paper's §IV says
	// suffers most from pause times.
	study(ReportSpec{Name: "StudyCollector",
		Title: fmt.Sprintf("Study — throughput vs concurrent collector (server @ %d threads, 1.6x heap)", hi),
		Note:  "the concurrent collector trades stop-the-world time for background GC CPU and fragmentation"},
		scenario("server", "throughput", &ConfigOverrides{HeapFactor: 1.6}),
		scenario("server", "cms", &ConfigOverrides{HeapFactor: 1.6, GCPolicy: gc.PolicyConcurrent, GCTriggerRatio: 0.5}))
	// Allocation-site pretenuring is the classic JVM countermeasure to the
	// survivor copying the paper diagnoses.
	study(ReportSpec{Name: "StudyPretenuring",
		Title: fmt.Sprintf("Study — allocation-site pretenuring (xalan @ %d threads)", hi),
		Note:  "long-lived sites allocate straight to the old generation, skipping the survivor copying the paper blames"},
		scenario("xalan", "no-pretenuring", nil),
		scenario("xalan", "pretenuring", &ConfigOverrides{Pretenuring: true}))

	seeds := scenario("xalan", "seeds", nil)
	seeds.Repeats = 5
	p.Scenarios = append(p.Scenarios, seeds)
	p.Reports = append(p.Reports, ReportSpec{Name: "StudyReplication", Kind: ReportReplication,
		Scenarios: []string{seeds.Name},
		Title:     fmt.Sprintf("Study — seed replication, 5 seeds (xalan @ %d threads)", hi),
		Note:      "every figure in this repository is deterministic per seed; this table bounds the across-seed spread"})
	return p
}
