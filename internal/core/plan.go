package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"javasim/internal/gc"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/report"
	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// This file is the declarative plan layer: experiments as data. A
// Scenario describes one experiment — a workload reference, thread
// counts, config overrides, repeats — and a Plan is an ordered set of
// scenarios plus the cross-scenario reports rendered from them.
// Plans round-trip through JSON, so whole experiment matrices live in
// files (cmd/javasim -plan) and the paper's own figure suite is just a
// built-in plan (PaperPlan).

// Output names a per-scenario artifact rendered from the scenario's own
// sweeps.
type Output string

const (
	// OutputSweep renders the headline measurements at every thread count.
	OutputSweep Output = "sweep"
	// OutputClassification renders the scenario's §II-C scalability verdict.
	OutputClassification Output = "classification"
	// OutputFactors renders the scenario's factor decomposition.
	OutputFactors Output = "factors"
	// OutputLifespanCDF renders the lifespan CDF at the scenario's lowest
	// and highest thread counts (the Figure 1c/1d panel).
	OutputLifespanCDF Output = "lifespan-cdf"
	// OutputReplication summarizes metric spread across the scenario's
	// repeats; it requires Repeats >= 2.
	OutputReplication Output = "replication"
	// OutputGoodput renders the open-system headline table — offered vs
	// completed throughput and the latency tail at every swept rate. It
	// requires (and is the only output allowed on) a Traffic scenario.
	OutputGoodput Output = "goodput"
	// OutputUSL renders the scenario's analytic scalability fit: the
	// predicted-vs-measured throughput curve under the best of the USL
	// and Amdahl models, with the fitted sigma/kappa/R^2 and predicted
	// peak in the footnote. It needs at least fit.MinPoints thread
	// counts to fit.
	OutputUSL Output = "usl"
)

// ConfigOverrides is the serializable subset of vm.Config a scenario may
// override — the ablation deltas of the paper's studies. The zero value
// of every field means "leave the default".
type ConfigOverrides struct {
	// HeapFactor overrides the heap multiple (paper default 3x).
	HeapFactor float64 `json:",omitempty"`
	// Compartments enables the compartmentalized heap (§IV suggestion 2).
	Compartments int `json:",omitempty"`
	// BiasGroups/BiasPhase enable phase-biased scheduling (§IV suggestion
	// 1). BiasPhase is virtual nanoseconds; zero with BiasGroups set
	// selects 2ms.
	BiasGroups int      `json:",omitempty"`
	BiasPhase  sim.Time `json:",omitempty"`
	// GCWorkers overrides the parallel collector's thread count.
	GCWorkers int `json:",omitempty"`
	// TenuringThreshold overrides the survivor-promotion age.
	TenuringThreshold int `json:",omitempty"`
	// GCTriggerRatio sets the old-generation occupancy that starts a
	// cycle of the concurrent GC policy.
	GCTriggerRatio float64 `json:",omitempty"`
	// Pretenuring enables the allocation-site pretenuring learner.
	Pretenuring bool `json:",omitempty"`
	// Iterations repeats the workload inside one JVM, DaCapo-style.
	Iterations int `json:",omitempty"`
	// LockPolicy selects the contended-monitor discipline by locks
	// registry name ("fifo", "barging", "spin-then-park", "restricted");
	// empty inherits the plan's (ultimately fifo). Unknown names are
	// rejected at plan-load time.
	LockPolicy string `json:",omitempty"`
	// Placement selects the scheduler's run-queue placement by sched
	// registry name ("affinity", "round-robin", "least-loaded"); empty
	// inherits the plan's (ultimately affinity).
	Placement string `json:",omitempty"`
	// GCPolicy selects the collection discipline by gc registry name
	// ("stw-serial", "stw-parallel", "concurrent", "compartment"); empty
	// inherits the plan's (ultimately stw-serial). Unknown names are
	// rejected at plan-load time.
	GCPolicy string `json:",omitempty"`
	// Machine selects the hardware model by machine registry name
	// ("opteron-6168", "sparc-t3-4", "opteron-6168-bw",
	// "opteron-6168-flat"); empty inherits the plan's (ultimately
	// opteron-6168). Unknown names are rejected at plan-load time.
	Machine string `json:",omitempty"`
}

// apply writes the non-zero overrides onto a vm.Config.
func (o *ConfigOverrides) apply(cfg *vm.Config) {
	if o == nil {
		return
	}
	if o.HeapFactor != 0 {
		cfg.HeapFactor = o.HeapFactor
	}
	if o.Compartments != 0 {
		cfg.Compartments = o.Compartments
	}
	if o.BiasGroups != 0 {
		cfg.Sched.Bias.Groups = o.BiasGroups
		cfg.Sched.Bias.PhaseLength = o.BiasPhase
	}
	if o.GCWorkers != 0 {
		cfg.GC.Workers = o.GCWorkers
	}
	if o.TenuringThreshold != 0 {
		cfg.GC.TenuringThreshold = uint8(o.TenuringThreshold)
	}
	if o.GCTriggerRatio != 0 {
		cfg.GC.TriggerRatio = o.GCTriggerRatio
	}
	if o.Pretenuring {
		cfg.Pretenuring = true
	}
	if o.Iterations != 0 {
		cfg.Iterations = o.Iterations
	}
	if o.LockPolicy != "" {
		cfg.LockPolicy = o.LockPolicy
	}
	if o.Placement != "" {
		cfg.Sched.Placement = o.Placement
	}
	if o.GCPolicy != "" {
		cfg.GCPolicy = o.GCPolicy
	}
	if o.Machine != "" {
		cfg.MachineName = o.Machine
	}
}

// validate reports structurally impossible overrides.
func (o *ConfigOverrides) validate() error {
	if o == nil {
		return nil
	}
	if o.HeapFactor < 0 {
		return fmt.Errorf("HeapFactor = %v", o.HeapFactor)
	}
	if o.Compartments < 0 || o.BiasGroups < 0 || o.GCWorkers < 0 || o.Iterations < 0 {
		return fmt.Errorf("negative override")
	}
	if o.TenuringThreshold < 0 || o.TenuringThreshold > 255 {
		return fmt.Errorf("TenuringThreshold = %d", o.TenuringThreshold)
	}
	if o.BiasPhase < 0 {
		return fmt.Errorf("BiasPhase = %v", o.BiasPhase)
	}
	if o.BiasPhase != 0 && o.BiasGroups == 0 {
		return fmt.Errorf("BiasPhase set without BiasGroups")
	}
	if o.GCTriggerRatio < 0 || o.GCTriggerRatio > 1 {
		return fmt.Errorf("GCTriggerRatio = %v", o.GCTriggerRatio)
	}
	if err := locks.Policies.Validate(o.LockPolicy); err != nil {
		return err
	}
	if err := sched.Placements.Validate(o.Placement); err != nil {
		return err
	}
	if err := gc.Policies.Validate(o.GCPolicy); err != nil {
		return err
	}
	return machine.Models.Validate(o.Machine)
}

// TrafficSpec switches a scenario to the open-system model: instead of a
// fixed thread pool looping over the workload (the closed system, where
// offered load falls as the system slows), requests arrive from a seeded
// generator process at a swept offered rate and queue for a fixed server
// pool — the model under which queueing delay compounds into tail latency
// and goodput diverges from offered load past saturation.
type TrafficSpec struct {
	// Process names the arrival process by traffic registry name
	// ("poisson", "bursty", "diurnal", or a registered custom). Required.
	Process string
	// Rates are the offered request rates (requests/second) to sweep,
	// strictly ascending. Required, non-empty.
	Rates []float64
	// Threads is the server-pool size at every rate point; 0 means
	// DefaultOpenThreads.
	Threads int `json:",omitempty"`
	// Requests bounds offered requests per run; 0 derives a budget from
	// the workload's unit count.
	Requests int `json:",omitempty"`
	// Timeout abandons requests that queue longer than this (virtual
	// nanoseconds); 0 never abandons.
	Timeout sim.Time `json:",omitempty"`
}

// config builds the per-point traffic configuration at one offered rate.
func (ts *TrafficSpec) config(rate float64) traffic.Config {
	return traffic.Config{
		Process: ts.Process, RatePerSec: rate,
		Requests: ts.Requests, Timeout: ts.Timeout,
	}
}

func (ts *TrafficSpec) threads() int {
	if ts.Threads <= 0 {
		return DefaultOpenThreads
	}
	return ts.Threads
}

func (ts *TrafficSpec) validate() error {
	if !(traffic.Config{Process: ts.Process}).Open() {
		return fmt.Errorf("Traffic.Process must name an open arrival process (have %q)", ts.Process)
	}
	if len(ts.Rates) == 0 {
		return fmt.Errorf("Traffic.Rates is empty")
	}
	for i, r := range ts.Rates {
		if r <= 0 {
			return fmt.Errorf("Traffic rate %v", r)
		}
		if i > 0 && r <= ts.Rates[i-1] {
			return fmt.Errorf("Traffic rates must be strictly ascending (%v after %v)", r, ts.Rates[i-1])
		}
	}
	if ts.Threads < 0 {
		return fmt.Errorf("Traffic.Threads = %d", ts.Threads)
	}
	return ts.config(ts.Rates[0]).Validate()
}

// Scenario declaratively describes one experiment: sweep a workload
// across thread counts under a (possibly overridden) JVM configuration,
// optionally repeated under derived seeds. Zero-valued fields inherit the
// enclosing plan's defaults.
type Scenario struct {
	// Name identifies the scenario; reports reference scenarios by it and
	// it labels the scenario's rows and tables. Required, unique in plan.
	Name string
	// Workload references a registered workload by name or carries an
	// inline spec.
	Workload workload.Ref
	// ThreadCounts to sweep, ascending; nil inherits the plan's (and
	// ultimately the paper's {4,8,16,24,32,48}). Mutually exclusive with
	// Traffic, which sweeps offered rates at a fixed pool size instead.
	ThreadCounts []int `json:",omitempty"`
	// Traffic switches the scenario to the open-system model: the sweep
	// axis becomes Traffic.Rates and every point runs Traffic.Threads
	// servers fed by the named arrival process.
	Traffic *TrafficSpec `json:",omitempty"`
	// Scale shrinks the workload (0 < Scale <= 1); 0 inherits the plan's.
	Scale float64 `json:",omitempty"`
	// Seed drives the scenario's randomness; 0 inherits the plan's.
	Seed uint64 `json:",omitempty"`
	// Repeats runs the whole sweep this many times under derived seeds
	// (repeat i uses Seed + i*1000, so repeat 0 shares cache entries with
	// unrepeated scenarios of the same seed). 0 means 1.
	Repeats int `json:",omitempty"`
	// Overrides are the scenario's JVM-config deltas.
	Overrides *ConfigOverrides `json:",omitempty"`
	// Outputs are the per-scenario artifacts to render.
	Outputs []Output `json:",omitempty"`
}

// validate checks one scenario's own fields; its outputs are checked
// against the kind table by Plan.Validate.
func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("core: scenario with empty name")
	}
	if _, err := sc.Workload.Resolve(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", sc.Name, err)
	}
	if err := validThreadCounts(sc.ThreadCounts); err != nil {
		return fmt.Errorf("core: scenario %q: %w", sc.Name, err)
	}
	if sc.Scale < 0 || sc.Scale > 1 {
		return fmt.Errorf("core: scenario %q: scale %v outside (0,1]", sc.Name, sc.Scale)
	}
	if sc.Repeats < 0 {
		return fmt.Errorf("core: scenario %q: repeats %d", sc.Name, sc.Repeats)
	}
	if err := sc.Overrides.validate(); err != nil {
		return fmt.Errorf("core: scenario %q: overrides: %w", sc.Name, err)
	}
	if sc.Traffic != nil {
		if len(sc.ThreadCounts) > 0 {
			return fmt.Errorf("core: scenario %q: Traffic scenarios sweep rates, not ThreadCounts", sc.Name)
		}
		if err := sc.Traffic.validate(); err != nil {
			return fmt.Errorf("core: scenario %q: %w", sc.Name, err)
		}
		if sc.Overrides != nil && sc.Overrides.Iterations > 1 {
			return fmt.Errorf("core: scenario %q: open-system runs take a single iteration", sc.Name)
		}
	}
	return nil
}

func (sc *Scenario) threadCounts(p *Plan) []int {
	switch {
	case len(sc.ThreadCounts) > 0:
		return sc.ThreadCounts
	case len(p.ThreadCounts) > 0:
		return p.ThreadCounts
	default:
		return DefaultThreadCounts
	}
}

// rates are a Traffic scenario's offered rates; nil for a thread sweep.
func (sc *Scenario) rates() []float64 {
	if sc.Traffic == nil {
		return nil
	}
	return sc.Traffic.Rates
}

// top is the scenario's largest thread count.
func (sc *Scenario) top(p *Plan) int {
	counts := sc.threadCounts(p)
	return counts[len(counts)-1]
}

func (sc *Scenario) scale(p *Plan) float64 {
	switch {
	case sc.Scale != 0:
		return sc.Scale
	case p.Scale != 0:
		return p.Scale
	default:
		return 1
	}
}

func (sc *Scenario) seed(p *Plan) uint64 {
	switch {
	case sc.Seed != 0:
		return sc.Seed
	case p.Seed != 0:
		return p.Seed
	default:
		return 42
	}
}

func (sc *Scenario) repeats() int {
	if sc.Repeats < 1 {
		return 1
	}
	return sc.Repeats
}

// validThreadCounts requires strictly ascending positive counts: every
// downstream analysis (speedup baselines, "largest thread count" tables,
// lifespan low/high panels) reads the first point as the lowest count
// and the last as the highest.
func validThreadCounts(counts []int) error {
	for i, n := range counts {
		if n < 1 {
			return fmt.Errorf("thread count %d", n)
		}
		if i > 0 && n <= counts[i-1] {
			return fmt.Errorf("thread counts must be strictly ascending (%d after %d)", n, counts[i-1])
		}
	}
	return nil
}

// deriveSeed derives the seed of repeat i from a scenario's base seed.
// Repeat 0 is the base seed itself, so a repeated scenario's first sweep
// shares memoized results with unrepeated scenarios at the same seed.
func deriveSeed(base uint64, i int) uint64 { return base + uint64(i)*1000 }

// ReportKind names a cross-scenario report shape.
type ReportKind string

const (
	// ReportSeries renders one metric per (scenario, thread count) — the
	// Figure 1a/1b shape.
	ReportSeries ReportKind = "series"
	// ReportLifespanCDF renders one scenario's lifespan CDF at a low and
	// a high thread count — the Figure 1c/1d shape.
	ReportLifespanCDF ReportKind = "lifespan-cdf"
	// ReportMutatorGC renders the mutator/GC split of each scenario at
	// every thread count — the Figure 2 shape.
	ReportMutatorGC ReportKind = "mutator-gc"
	// ReportClassification renders the §II-C verdict per scenario.
	ReportClassification ReportKind = "classification"
	// ReportWorkDistribution renders the §III per-thread work spread.
	ReportWorkDistribution ReportKind = "work-distribution"
	// ReportFactors renders the factor decomposition per scenario.
	ReportFactors ReportKind = "factors"
	// ReportCompare contrasts two scenarios' results at their largest
	// thread counts — the ablation shape.
	ReportCompare ReportKind = "compare"
	// ReportGoodput renders offered vs completed throughput and the
	// latency tail of open-system scenarios across their swept rates —
	// the goodput-under-overload shape. It may only reference Traffic
	// scenarios, and they must share one rate grid.
	ReportGoodput ReportKind = "goodput"
	// ReportUSL renders the analytic scalability fit across scenarios:
	// one row per scenario with the fitted USL/Amdahl parameters (sigma,
	// kappa, R^2), the residual-selected model, the predicted peak
	// concurrency, and the worst predicted-vs-measured deviation. Every
	// referenced scenario must sweep at least fit.MinPoints thread
	// counts.
	ReportUSL ReportKind = "usl"
	// ReportRows renders one row per scenario from its largest point:
	// times, collection counts, pauses, and copied and promoted bytes —
	// the shape of a design-choice study, one scenario per knob setting.
	// The scenarios must top out at the same thread count.
	ReportRows ReportKind = "rows"
	// ReportReplication summarizes metric spread across one scenario's
	// repeats, like the replication output; the scenario needs
	// Repeats >= 2.
	ReportReplication ReportKind = "replication"
)

// Metric selects the number a series report extracts from each sweep
// point.
type Metric string

const (
	MetricAcquisitions   Metric = "acquisitions"
	MetricContentions    Metric = "contentions"
	MetricTotalSeconds   Metric = "total-seconds"
	MetricMutatorSeconds Metric = "mutator-seconds"
	MetricGCSeconds      Metric = "gc-seconds"
	MetricGCShare        Metric = "gc-share"
	MetricCDFBelow1KB    Metric = "cdf-below-1kb"
)

// ReportSpec declares one cross-scenario artifact of a plan.
type ReportSpec struct {
	// Name identifies the rendered artifact (progress events and
	// PlanResult lookups use it). Required, unique in plan.
	Name string
	// Kind selects the report shape.
	Kind ReportKind
	// Title overrides the report's default title. For lifespan-cdf it is
	// a prefix joined to the generated panel title with " — ".
	Title string `json:",omitempty"`
	// Note is the table's footnote.
	Note string `json:",omitempty"`
	// Key is the series row-key header; default "scenario".
	Key string `json:",omitempty"`
	// Metric selects the series number.
	Metric Metric `json:",omitempty"`
	// Scenarios are the contributing scenario names, in row order; empty
	// means every scenario in plan order. lifespan-cdf takes exactly one.
	// For compare, Scenarios (>= 2, first is the baseline) is the
	// multi-column alternative to the Baseline/Modified pair — the shape
	// of a whole policy ablation in one table.
	Scenarios []string `json:",omitempty"`
	// LowThreads/HighThreads pick the lifespan-cdf panel's two counts;
	// zero selects the scenario's first/last thread count.
	LowThreads  int `json:",omitempty"`
	HighThreads int `json:",omitempty"`
	// Baseline and Modified name the two scenarios of a two-column
	// compare report; leave both empty and list Scenarios instead for a
	// multi-column compare.
	Baseline string `json:",omitempty"`
	Modified string `json:",omitempty"`
}

// named lists the scenarios a report names: its Baseline/Modified pair,
// or its Scenarios (empty meaning every scenario).
func (rs *ReportSpec) named() []string {
	if rs.Baseline != "" || rs.Modified != "" {
		return []string{rs.Baseline, rs.Modified}
	}
	return rs.Scenarios
}

// Plan is an ordered set of scenarios plus the reports rendered across
// them — a whole experiment matrix as one serializable value.
type Plan struct {
	// Name labels the plan in progress events and results.
	Name string `json:",omitempty"`
	// Seed, Scale, and ThreadCounts are the defaults scenarios inherit.
	Seed         uint64  `json:",omitempty"`
	Scale        float64 `json:",omitempty"`
	ThreadCounts []int   `json:",omitempty"`
	// LockPolicy, Placement, and GCPolicy are the policy defaults every
	// scenario inherits; a scenario's ConfigOverrides take precedence.
	// Empty means fifo/affinity/stw-serial, the paper's baseline.
	// Unknown names are rejected at plan-load time.
	LockPolicy string `json:",omitempty"`
	Placement  string `json:",omitempty"`
	GCPolicy   string `json:",omitempty"`
	// Machine is the hardware-model default every scenario inherits; a
	// scenario's Overrides.Machine takes precedence. Empty means
	// opteron-6168, the paper's testbed. Unknown names are rejected at
	// plan-load time.
	Machine string `json:",omitempty"`
	// Scenarios are the experiments, executed through the engine's pool.
	Scenarios []Scenario
	// Reports are the cross-scenario artifacts, rendered in order once
	// every scenario has run.
	Reports []ReportSpec `json:",omitempty"`
}

// Validate reports structural errors: missing or duplicate scenario
// names, unresolvable workload references, unknown outputs, metrics, or
// report kinds, reports referencing absent scenarios, and any output or
// report whose scenarios miss a requirement its kind declares.
func (p *Plan) Validate() error {
	if len(p.Scenarios) == 0 {
		return fmt.Errorf("core: plan %q has no scenarios", p.Name)
	}
	if p.Scale < 0 || p.Scale > 1 {
		return fmt.Errorf("core: plan %q: scale %v outside (0,1]", p.Name, p.Scale)
	}
	if err := validThreadCounts(p.ThreadCounts); err != nil {
		return fmt.Errorf("core: plan %q: %w", p.Name, err)
	}
	// The plan's policy defaults obey the same registry checks as a
	// scenario's overrides of them.
	defaults := ConfigOverrides{LockPolicy: p.LockPolicy, Placement: p.Placement, GCPolicy: p.GCPolicy, Machine: p.Machine}
	if err := defaults.validate(); err != nil {
		return fmt.Errorf("core: plan %q: %w", p.Name, err)
	}
	byName := make(map[string]*Scenario, len(p.Scenarios))
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		if err := sc.validate(); err != nil {
			return err
		}
		if byName[sc.Name] != nil {
			return fmt.Errorf("core: duplicate scenario name %q", sc.Name)
		}
		byName[sc.Name] = sc
		// Every output and report is checked against its kind-table entry.
		for _, out := range sc.Outputs {
			if _, ok := kinds[out]; !ok {
				return fmt.Errorf("core: scenario %q: unknown output %q (known: %s)", sc.Name, out, known(out, nil))
			}
			if err := p.require(out, nil, []*Scenario{sc}); err != nil {
				return fmt.Errorf("core: scenario %q: %s output %w", sc.Name, out, err)
			}
		}
	}
	reports := make(map[string]bool, len(p.Reports))
	for i := range p.Reports {
		rs := &p.Reports[i]
		if err := checkReport(rs, byName); err != nil {
			return err
		}
		if reports[rs.Name] {
			return fmt.Errorf("core: duplicate report name %q", rs.Name)
		}
		reports[rs.Name] = true
		names := p.reportScenarios(rs)
		scs := make([]*Scenario, len(names))
		for j, n := range names {
			scs[j] = byName[n]
		}
		if err := p.require(rs.Kind, rs, scs); err != nil {
			return fmt.Errorf("core: report %q: %s report %w", rs.Name, rs.Kind, err)
		}
	}
	return nil
}

// scenario returns the named scenario, or nil.
func (p *Plan) scenario(name string) *Scenario {
	for i := range p.Scenarios {
		if p.Scenarios[i].Name == name {
			return &p.Scenarios[i]
		}
	}
	return nil
}

// report returns the named report spec, or nil.
func (p *Plan) report(name string) *ReportSpec {
	for i := range p.Reports {
		if p.Reports[i].Name == name {
			return &p.Reports[i]
		}
	}
	return nil
}

// reportScenarios resolves which scenarios feed a report: its explicit
// list, or every scenario in plan order when the list is empty. Both
// validation and rendering use this one rule.
func (p *Plan) reportScenarios(rs *ReportSpec) []string {
	if names := rs.named(); len(names) > 0 {
		return names
	}
	names := make([]string, len(p.Scenarios))
	for i := range p.Scenarios {
		names[i] = p.Scenarios[i].Name
	}
	return names
}

// Select returns a copy of the plan keeping only the named reports, in
// plan order, and the scenarios they read — so one artifact of a large
// plan renders without simulating the rest of its matrix. The copy
// shares scenario and report contents with p. An unknown name is an
// error listing the plan's reports.
func (p *Plan) Select(reports ...string) (*Plan, error) {
	want := make(map[string]bool, len(reports))
	for _, name := range reports {
		if p.report(name) == nil {
			known := make([]string, len(p.Reports))
			for i := range p.Reports {
				known[i] = p.Reports[i].Name
			}
			return nil, fmt.Errorf("core: plan %q has no report %q (known: %s)", p.Name, name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	q := *p
	q.Scenarios, q.Reports = nil, nil
	read := make(map[string]bool)
	for i := range p.Reports {
		if rs := &p.Reports[i]; want[rs.Name] {
			q.Reports = append(q.Reports, *rs)
			for _, n := range p.reportScenarios(rs) {
				read[n] = true
			}
		}
	}
	for _, sc := range p.Scenarios {
		if read[sc.Name] {
			q.Scenarios = append(q.Scenarios, sc)
		}
	}
	return &q, nil
}

// WriteJSON renders the plan as indented JSON — the plan-file format
// cmd/javasim -plan reads.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPlan reads and validates a plan from JSON. Unknown fields are
// rejected so typos in hand-written plan files surface immediately.
func LoadPlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ScenarioResult is one scenario's execution record.
type ScenarioResult struct {
	// Name is the scenario name; Workload the resolved spec name.
	Name     string
	Workload string
	// Sweeps holds one sweep per repeat, repeat 0 first.
	Sweeps []*Sweep
	// Tables are the scenario's rendered Outputs, in declaration order.
	// The engine memoizes rendered tables, so they may be shared with
	// other results and must be treated as immutable, like vm.Result.
	Tables []*report.Table
}

// Sweep returns the first repeat's sweep — the scenario's primary result.
func (r *ScenarioResult) Sweep() *Sweep { return r.Sweeps[0] }

// PlanResult is the complete outcome of Engine.RunPlan.
type PlanResult struct {
	// Plan is the executed plan's name.
	Plan string
	// Scenarios hold per-scenario results, in plan order.
	Scenarios []*ScenarioResult
	// Reports are the plan's cross-scenario tables, in plan order. Like
	// ScenarioResult.Tables, they may be shared with other results and
	// must be treated as immutable.
	Reports []*report.Table
}

// Scenario returns the named scenario's result, or nil.
func (pr *PlanResult) Scenario(name string) *ScenarioResult {
	for _, r := range pr.Scenarios {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Tables returns every rendered table — scenario outputs in plan order,
// then the cross-scenario reports.
func (pr *PlanResult) Tables() []*report.Table {
	var out []*report.Table
	for _, r := range pr.Scenarios {
		out = append(out, r.Tables...)
	}
	return append(out, pr.Reports...)
}

// RunPlan validates and executes a declarative plan. The plan compiles
// into one list of points in plan order, which the engine's bounded
// worker pool runs as one batch (identical points across overlapping
// scenarios are deduplicated and memoized by the run cache); progress
// streams to the engine's observers, each scenario's outputs render as
// its last sweep completes, and the plan's reports render once every
// scenario has finished. The first failure cancels the points not yet
// started. A canceled context aborts the in-flight points and returns
// the context's error.
func (e *Engine) RunPlan(ctx context.Context, p *Plan) (*PlanResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x, err := e.compilePlan(p)
	if err != nil {
		return nil, err
	}
	if err := e.execute(ctx, x); err != nil {
		return nil, err
	}
	pr := &PlanResult{Plan: p.Name, Scenarios: make([]*ScenarioResult, len(x.scens))}
	byName := make(map[string]*ScenarioResult, len(x.scens))
	for i, sc := range x.scens {
		pr.Scenarios[i] = sc.res
		byName[sc.res.Name] = sc.res
	}
	for i := range p.Reports {
		rs := &p.Reports[i]
		names := p.reportScenarios(rs)
		sweeps := make([]*Sweep, len(names))
		for j, name := range names {
			sweeps[j] = byName[name].Sweep()
		}
		t, err := e.render(rs.Kind, &inputs{spec: rs, labels: names, sweeps: sweeps, repeats: byName[names[0]].Sweeps})
		if err != nil {
			return nil, err
		}
		pr.Reports = append(pr.Reports, t)
		e.emit(ctx, Event{Kind: ArtifactRendered, Artifact: rs.Name})
	}
	e.emit(ctx, Event{Kind: PlanDone, Plan: p.Name})
	return pr, nil
}

// render renders one output or report through the engine's artifact
// memo: a table whose artifactKey was rendered before is returned as
// stored, so a warm re-run of a plan recomputes no fit, factor or
// format. A stored table is frozen with its text, so writing it again
// formats nothing. Tables are stored only when every point they read has a
// fingerprint, and render errors are never stored.
func (e *Engine) render(kind any, in *inputs) (*report.Table, error) {
	if e.artifacts == nil {
		return render(kind, in)
	}
	key, ok := artifactKey(kind, in)
	if !ok {
		return render(kind, in)
	}
	if t, hit := e.artifacts.get(key); hit {
		return t, nil
	}
	t, err := render(kind, in)
	if err == nil {
		t.Freeze()
		e.artifacts.put(key, t)
	}
	return t, err
}
