package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"javasim/internal/fit"
	"javasim/internal/report"
	"javasim/internal/vm"
)

// This file declares every plan artifact as data. Each Output, ReportKind,
// and Metric has one entry in kinds stating what it needs of the
// scenarios it reads and how it renders; Plan.Validate checks every
// output and report against its entry, and RunPlan renders through it.
// Adding a report kind is one entry plus a renderer.

// axis is the sweep axis an artifact reads.
type axis uint8

const (
	threadAxis axis = iota + 1 // closed-system thread-count sweeps
	rateAxis                   // open-system offered-rate sweeps
	eitherAxis                 // whichever axis the scenario sweeps
)

// field flags the optional ReportSpec fields a report kind accepts. A
// field set on a kind that does not accept it is rejected, so a setting
// that would be silently ignored surfaces at validation time.
type field uint8

const (
	fieldMetric  field = 1 << iota // Metric, which must name a known metric
	fieldKey                       // Key, the row-key header
	fieldThreads                   // LowThreads/HighThreads, which must be sweep points
	fieldPair                      // Baseline/Modified, the alternative to Scenarios
)

// optionalFields names each field flag and reports whether a spec sets it.
var optionalFields = []struct {
	flag field
	name string
	set  func(*ReportSpec) bool
}{
	{fieldMetric, "Metric", func(rs *ReportSpec) bool { return rs.Metric != "" }},
	{fieldKey, "Key", func(rs *ReportSpec) bool { return rs.Key != "" }},
	{fieldThreads, "LowThreads/HighThreads", func(rs *ReportSpec) bool { return rs.LowThreads != 0 || rs.HighThreads != 0 }},
	{fieldPair, "Baseline/Modified", func(rs *ReportSpec) bool { return rs.Baseline != "" || rs.Modified != "" }},
}

// kind declares one Output, ReportKind, or Metric.
type kind struct {
	// axis is the sweep axis every scenario read must have: the
	// scalability artifacts read thread sweeps and the goodput ones rate
	// sweeps, and an artifact over the wrong flavor would render nonsense.
	axis axis
	// exactly and atLeast bound how many scenarios a report names, when
	// nonzero.
	exactly, atLeast int
	// sameGrid requires the scenarios to share one thread-count or rate
	// grid, or their rows would compare unlike points. sameTop requires
	// them to top out at the same thread count, or a contrast of their
	// largest points would mix a config delta with a thread-count delta.
	sameGrid, sameTop bool
	// fits requires fit.MinPoints thread counts per scenario: with two
	// shape parameters plus the throughput scale, fewer points is an
	// interpolation, and the typo surfaces before simulating rather than
	// as a fit error mid-plan. repeats requires Repeats >= 2.
	fits, repeats bool
	// fields are the optional ReportSpec fields that apply.
	fields field
	// title is the default title; {metric} and {scenarios} expand to the
	// report's metric and its " vs "-joined scenario names. An empty
	// title leaves the renderer's own. With prefixTitle a spec Title
	// prefixes the rendered title instead of replacing it.
	title       string
	prefixTitle bool
	render      func(*inputs) (*report.Table, error)
	// series and format extract and print a Metric's per-point numbers.
	series func(*Sweep) []float64
	format func(float64) string
}

// inputs are what one output or report renders from: its spec (empty for
// a per-scenario output), the labeled primary sweep of every scenario it
// reads, and every repeat of its first scenario.
type inputs struct {
	spec    *ReportSpec
	labels  []string
	sweeps  []*Sweep
	repeats []*Sweep
	// metric is the entry of spec.Metric, for series reports. render
	// fills it in: a renderer cannot look it up in kinds itself, since
	// kinds' initializer refers to the renderers (an initialization cycle).
	metric kind
}

// Default titles shared by an output and the report kind of the same shape.
const (
	classificationTitle = "Table — scalability classification (paper §II-C)"
	factorsTitle        = "Table — scalability factor decomposition"
	goodputTitle        = "Goodput and latency vs offered rate"
)

// kinds is the table: one entry per Output, ReportKind, and Metric.
var kinds = map[any]kind{
	OutputSweep:          {axis: threadAxis, render: renderSweepTable},
	OutputClassification: {axis: threadAxis, title: classificationTitle, render: renderClassification},
	OutputFactors:        {axis: threadAxis, title: factorsTitle, render: renderFactors},
	OutputLifespanCDF:    {axis: threadAxis, render: renderLifespanCDF},
	OutputReplication:    {axis: eitherAxis, repeats: true, render: renderReplication},
	OutputGoodput:        {axis: rateAxis, title: goodputTitle, render: renderGoodput},
	OutputUSL:            {axis: threadAxis, fits: true, render: renderUSLOutput},

	ReportSeries: {axis: threadAxis, sameGrid: true, fields: fieldMetric | fieldKey,
		title: "{metric} vs threads", render: renderSeries},
	ReportLifespanCDF: {axis: threadAxis, exactly: 1, fields: fieldThreads,
		prefixTitle: true, render: renderLifespanCDF},
	ReportMutatorGC:      {axis: threadAxis, title: "Mutator and GC time split", render: renderMutatorGC},
	ReportClassification: {axis: threadAxis, title: classificationTitle, render: renderClassification},
	ReportWorkDistribution: {axis: threadAxis,
		title: "Table — per-thread work distribution at the largest thread count", render: renderWorkDistribution},
	ReportFactors: {axis: threadAxis, title: factorsTitle, render: renderFactors},
	ReportCompare: {axis: threadAxis, atLeast: 2, sameTop: true, fields: fieldPair,
		title: "Compare — {scenarios}", render: renderCompare},
	ReportGoodput: {axis: rateAxis, sameGrid: true, title: goodputTitle, render: renderGoodput},
	ReportUSL: {axis: threadAxis, fits: true,
		title: "Table — USL scalability fit, C(N) = N / (1 + sigma*(N-1) + kappa*N*(N-1))", render: renderUSL},
	ReportRows:        {axis: threadAxis, sameTop: true, render: renderRows},
	ReportReplication: {axis: eitherAxis, exactly: 1, repeats: true, render: renderReplication},

	MetricAcquisitions:   {series: (*Sweep).Acquisitions, format: formatCount},
	MetricContentions:    {series: (*Sweep).Contentions, format: formatCount},
	MetricTotalSeconds:   {series: perPoint(func(r *vm.Result) float64 { return r.TotalTime.Seconds() }), format: formatSeconds},
	MetricMutatorSeconds: {series: (*Sweep).MutatorSeconds, format: formatSeconds},
	MetricGCSeconds:      {series: (*Sweep).GCSeconds, format: formatSeconds},
	MetricGCShare:        {series: perPoint((*vm.Result).GCShare), format: report.FormatPct},
	MetricCDFBelow1KB:    {series: perPoint(func(r *vm.Result) float64 { return r.Lifespans.FractionBelow(1024) }), format: report.FormatPct},
}

// perPoint lifts a per-result number to a per-point sweep series.
func perPoint(f func(*vm.Result) float64) func(*Sweep) []float64 {
	return func(sw *Sweep) []float64 {
		out := make([]float64, len(sw.Points))
		for i, p := range sw.Points {
			out[i] = f(p.Result)
		}
		return out
	}
}

func formatCount(v float64) string   { return report.FormatCount(int64(v)) }
func formatSeconds(v float64) string { return fmt.Sprintf("%.4fs", v) }

// known lists, sorted, the declared names of key's type (Output,
// ReportKind, or Metric) whose entries satisfy keep (nil keeps all) —
// so a rejection always names what would have been accepted.
func known(key any, keep func(kind) bool) string {
	var names []string
	for k, d := range kinds {
		if reflect.TypeOf(k) == reflect.TypeOf(key) && (keep == nil || keep(d)) {
			names = append(names, fmt.Sprint(k))
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// render renders one output or report through its entry, then applies
// the entry's default title and the spec's Title and Note.
func render(key any, in *inputs) (*report.Table, error) {
	k := kinds[key]
	in.metric = kinds[in.spec.Metric]
	t, err := k.render(in)
	if err != nil {
		return nil, err
	}
	if k.title != "" {
		t.Title = strings.ReplaceAll(k.title, "{metric}", string(in.spec.Metric))
		if strings.Contains(t.Title, "{scenarios}") {
			t.Title = strings.ReplaceAll(t.Title, "{scenarios}", strings.Join(in.labels, " vs "))
		}
	}
	switch {
	case in.spec.Title == "":
	case k.prefixTitle:
		t.Title = in.spec.Title + " — " + t.Title
	default:
		t.Title = in.spec.Title
	}
	if in.spec.Note != "" {
		t.Note = in.spec.Note
	}
	return t, nil
}

// checkReport validates a report's own fields against its entry: name,
// kind, optional fields, scenario references, and scenario count.
func checkReport(rs *ReportSpec, byName map[string]*Scenario) error {
	if rs.Name == "" {
		return fmt.Errorf("core: report with empty name")
	}
	k, ok := kinds[rs.Kind]
	if !ok {
		return fmt.Errorf("core: report %q: unknown kind %q (known: %s)", rs.Name, rs.Kind, known(rs.Kind, nil))
	}
	for _, f := range optionalFields {
		if f.set(rs) && k.fields&f.flag == 0 {
			return fmt.Errorf("core: report %q: %s only applies to %s reports", rs.Name, f.name,
				known(rs.Kind, func(d kind) bool { return d.fields&f.flag != 0 }))
		}
	}
	if _, ok := kinds[rs.Metric]; !ok && k.fields&fieldMetric != 0 {
		return fmt.Errorf("core: report %q: unknown metric %q (known: %s)", rs.Name, rs.Metric, known(rs.Metric, nil))
	}
	if rs.Baseline != "" || rs.Modified != "" {
		if rs.Baseline == "" || rs.Modified == "" {
			return fmt.Errorf("core: report %q: %s needs Baseline and Modified", rs.Name, rs.Kind)
		}
		if len(rs.Scenarios) > 0 {
			return fmt.Errorf("core: report %q: %s takes either Baseline/Modified or Scenarios, not both", rs.Name, rs.Kind)
		}
	}
	named := rs.named()
	for _, n := range named {
		if byName[n] == nil {
			return fmt.Errorf("core: report %q references unknown scenario %q", rs.Name, n)
		}
	}
	if k.exactly > 0 && len(named) != k.exactly {
		return fmt.Errorf("core: report %q: %s takes exactly %d scenario(s), names %d", rs.Name, rs.Kind, k.exactly, len(named))
	}
	if len(named) < k.atLeast {
		or := ""
		if k.fields&fieldPair != 0 {
			or = ", or Baseline and Modified"
		}
		return fmt.Errorf("core: report %q: %s needs at least %d Scenarios%s", rs.Name, rs.Kind, k.atLeast, or)
	}
	return nil
}

// require checks the scenarios an output or report reads against its
// entry's declarations; rs is the report's spec (nil for an output). Its
// errors read as a predicate of the artifact, which the caller names.
func (p *Plan) require(key any, rs *ReportSpec, scs []*Scenario) error {
	k := kinds[key]
	for _, sc := range scs {
		switch {
		case k.axis == threadAxis && sc.Traffic != nil:
			return fmt.Errorf("reads thread sweeps, but scenario %q sweeps offered rates — Traffic scenarios render %s",
				sc.Name, known(key, func(d kind) bool { return d.axis != threadAxis }))
		case k.axis == rateAxis && sc.Traffic == nil:
			return fmt.Errorf("reads rate sweeps and needs a Traffic block, but scenario %q has no Traffic block", sc.Name)
		case k.fits && len(sc.threadCounts(p)) < fit.MinPoints:
			return fmt.Errorf("needs at least %d thread counts to fit, but scenario %q sweeps %v — a degenerate sweep cannot separate contention from coherency",
				fit.MinPoints, sc.Name, sc.threadCounts(p))
		case k.repeats && sc.repeats() < 2:
			return fmt.Errorf("needs Repeats >= 2, but scenario %q runs %d", sc.Name, sc.repeats())
		}
	}
	for i := 1; i < len(scs); i++ {
		first, sc := scs[0], scs[i]
		if k.sameGrid && !(slices.Equal(first.threadCounts(p), sc.threadCounts(p)) && slices.Equal(first.rates(), sc.rates())) {
			if first.Traffic != nil {
				return fmt.Errorf("rows must share the rate grid, but scenario %q sweeps %v and %q sweeps %v",
					first.Name, first.rates(), sc.Name, sc.rates())
			}
			return fmt.Errorf("rows must share thread counts, but scenario %q sweeps %v and %q sweeps %v",
				first.Name, first.threadCounts(p), sc.Name, sc.threadCounts(p))
		}
		if k.sameTop && first.top(p) != sc.top(p) {
			return fmt.Errorf("contrasts the largest points, which must match, but %q tops out at %d threads and %q at %d",
				first.Name, first.top(p), sc.Name, sc.top(p))
		}
	}
	if k.fields&fieldThreads != 0 {
		counts := scs[0].threadCounts(p)
		for _, want := range []int{rs.LowThreads, rs.HighThreads} {
			if want != 0 && !slices.Contains(counts, want) {
				return fmt.Errorf("picks thread count %d, which is not in scenario %q's sweep %v", want, scs[0].Name, counts)
			}
		}
	}
	return nil
}
