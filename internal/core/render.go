package core

import (
	"fmt"
	"math"
	"slices"

	"javasim/internal/fit"
	"javasim/internal/gc"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/metrics"
	"javasim/internal/report"
	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// policyTag names a result's non-default policies so factor rows and
// compare columns self-identify when one plan A/Bs disciplines:
// "restricted", "fifo/round-robin", "barging/least-loaded",
// "gc=concurrent", "restricted gc=compartment". Runs under the default
// fifo + affinity + stw-serial triple yield "" and every historical
// artifact keeps its byte-identical form.
func policyTag(r *vm.Result) string {
	lock, place := r.LockPolicy, r.Placement
	defaultLock := lock == "" || lock == locks.PolicyFIFO
	defaultPlace := place == "" || place == sched.PlacementAffinity
	var tag string
	switch {
	case defaultLock && defaultPlace:
		tag = ""
	case defaultPlace:
		tag = lock
	case defaultLock:
		tag = locks.PolicyFIFO + "/" + place
	default:
		tag = lock + "/" + place
	}
	if g := r.GCPolicy; g != "" && g != gc.PolicyStwSerial {
		if tag != "" {
			tag += " "
		}
		tag += "gc=" + g
	}
	if m := r.Machine; m != "" && m != machine.DefaultModel {
		if tag != "" {
			tag += " "
		}
		tag += "machine=" + m
	}
	return tag
}

// tagLabel suffixes a row label with the sweep's policy tag, if any.
func tagLabel(label string, sw *Sweep) string {
	if tag := policyTag(sw.Points[0].Result); tag != "" {
		return label + " [" + tag + "]"
	}
	return label
}

// This file holds the rendering layer behind every plan output and
// report: each figure and table is a pure function of one or more
// sweeps, so a selected plan renders the same bytes as the full plan
// from the same simulation results.

// threadHeaders builds the {key, "t=4", "t=8", ...} header row from a
// sweep's points.
func threadHeaders(key string, sw *Sweep) []string {
	hs := []string{key}
	for _, p := range sw.Points {
		hs = append(hs, fmt.Sprintf("t=%d", p.Threads))
	}
	return hs
}

// renderSeries builds a one-number-per-(row, thread-count) table: each
// labeled sweep becomes a row, each sweep point a column. Validation
// guarantees the rows share one thread-count grid.
func renderSeries(in *inputs) (*report.Table, error) {
	key := in.spec.Key
	if key == "" {
		key = "scenario"
	}
	t := &report.Table{Headers: threadHeaders(key, in.sweeps[0])}
	for i, sw := range in.sweeps {
		row := []string{in.labels[i]}
		for _, v := range in.metric.series(sw) {
			row = append(row, in.metric.format(v))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// renderLifespanCDF builds a Figure 1c/1d panel: the cumulative lifespan
// distribution of one sweep's workload at two thread counts, by default
// its first and last.
func renderLifespanCDF(in *inputs) (*report.Table, error) {
	sw := in.sweeps[0]
	lowThreads, highThreads := in.spec.LowThreads, in.spec.HighThreads
	if lowThreads == 0 {
		lowThreads = sw.Points[0].Threads
	}
	if highThreads == 0 {
		highThreads = sw.Points[len(sw.Points)-1].Threads
	}
	var low, high *vm.Result
	for _, p := range sw.Points {
		if p.Threads == lowThreads {
			low = p.Result
		}
		if p.Threads == highThreads {
			high = p.Result
		}
	}
	if low == nil || high == nil {
		return nil, fmt.Errorf("core: thread counts %d/%d not in sweep for %s",
			lowThreads, highThreads, sw.Spec.Name)
	}
	t := &report.Table{
		Title: fmt.Sprintf("%s object lifetime CDF (%% of objects with lifespan < X bytes)", sw.Spec.Name),
		Headers: []string{"lifespan <",
			fmt.Sprintf("%d threads", lowThreads),
			fmt.Sprintf("%d threads", highThreads)},
	}
	for _, lim := range cdfLimits {
		t.AddRow(formatBytes(lim),
			report.FormatPct(low.Lifespans.FractionBelow(lim)),
			report.FormatPct(high.Lifespans.FractionBelow(lim)))
	}
	return t, nil
}

// renderMutatorGC builds the Figure 2 table: the mutator/GC time split of
// each labeled sweep across its thread counts, one row per point.
func renderMutatorGC(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Headers: []string{"workload", "threads", "mutator", "gc", "gc-share", "minor", "full"},
	}
	for i, sw := range in.sweeps {
		for _, p := range sw.Points {
			r := p.Result
			t.AddRow(in.labels[i], fmt.Sprintf("%d", p.Threads),
				r.MutatorTime.String(), r.GCTime.String(),
				report.FormatPct(r.GCShare()),
				fmt.Sprintf("%d", r.GCStats.MinorCount),
				fmt.Sprintf("%d", r.GCStats.FullCount))
		}
	}
	return t, nil
}

// renderClassification builds the §II-C characterization table, one row
// per labeled sweep. The paper columns key off the workload (the paper
// classified benchmarks, not scenarios); the row label is the scenario's.
func renderClassification(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Headers: []string{"workload", "max-speedup", "at-threads", "final-eff", "verdict", "paper", "match"},
	}
	for i, sw := range in.sweeps {
		c := sw.Classify(DefaultSpeedupThreshold)
		verdict := map[bool]string{true: "scalable", false: "non-scalable"}
		// The paper only classified its own six benchmarks; extensions and
		// custom workloads have no published verdict to agree with.
		paper, match := "-", "-"
		if workload.IsPaperBenchmark(c.Name) {
			paper = verdict[c.PaperScalable]
			match = map[bool]string{true: "yes", false: "NO"}[c.Matches()]
		}
		t.AddRow(in.labels[i],
			fmt.Sprintf("%.2fx", c.MaxSpeedup),
			fmt.Sprintf("%d", c.AtThreads),
			fmt.Sprintf("%.2f", c.FinalEfficiency),
			verdict[c.Scalable], paper, match)
	}
	return t, nil
}

// renderWorkDistribution builds the §III work-distribution table, one row
// per labeled sweep, from each sweep's largest thread count.
func renderWorkDistribution(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Headers: []string{"workload", "threads", "busy-threads", "top4-share", "max/mean"},
		Note:    "paper §III: jython uses 3-4 threads for most work; xalan/lusearch/sunflow are near-uniform",
	}
	for i, sw := range in.sweeps {
		last := sw.Points[len(sw.Points)-1]
		shares := make([]float64, len(last.Result.PerThreadUnits))
		busy := 0
		for j, u := range last.Result.PerThreadUnits {
			shares[j] = float64(u)
			if u > 0 {
				busy++
			}
		}
		f := sw.ComputeFactors()
		t.AddRow(in.labels[i], fmt.Sprintf("%d", last.Threads), fmt.Sprintf("%d", busy),
			report.FormatPct(f.Top4Share),
			fmt.Sprintf("%.2f", metrics.ImbalanceRatio(shares)))
	}
	return t, nil
}

// renderFactors builds the factor-decomposition table, one row per
// labeled sweep. A bw-share column appears only when some sweep ran on a
// bandwidth-limited machine, so historical artifacts keep their
// byte-identical form.
func renderFactors(in *inputs) (*report.Table, error) {
	bw := slices.ContainsFunc(in.sweeps, func(sw *Sweep) bool {
		return slices.ContainsFunc(sw.Points, func(p Point) bool { return p.Result.MemTraffic > 0 })
	})
	headers := []string{"workload", "amdahl-f", "acq-growth", "cont-growth",
		"gc-growth", "gc-share", "lifespan-shift", "lifespan-ks", "top4-share"}
	if bw {
		headers = append(headers, "bw-share")
	}
	t := &report.Table{Headers: headers}
	for i, sw := range in.sweeps {
		f := sw.ComputeFactors()
		row := []string{tagLabel(in.labels[i], sw),
			fmt.Sprintf("%.3f", f.SequentialFraction),
			fmt.Sprintf("%.2fx", f.AcquisitionGrowth),
			fmt.Sprintf("%.2fx", f.ContentionGrowth),
			fmt.Sprintf("%.2fx", f.GCTimeGrowth),
			report.FormatPct(f.GCShareFirst) + "->" + report.FormatPct(f.GCShareLast),
			fmt.Sprintf("%+.1fpt", 100*f.LifespanShift),
			fmt.Sprintf("%.3f", f.LifespanKS),
			report.FormatPct(f.Top4Share)}
		if bw {
			row = append(row, report.FormatPct(f.BandwidthShare))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// formatPhases renders a pause-phase breakdown as setup/scan/copy.
func formatPhases(b gc.Breakdown) string {
	return fmt.Sprintf("%v/%v/%v", b.Setup, b.Scan, b.Copy)
}

// compareRows fills a compare table's metric rows from one result per
// column. The per-phase GC CPU and concurrent-GC rows appear only when a
// column ran a GC policy other than the stw-serial default, and the
// mem-bw stall row only when a column's machine billed memory traffic
// against a per-socket bandwidth ceiling, so historical two-column
// artifacts keep their byte-identical form.
func compareRows(t *report.Table, results []*vm.Result) {
	row := func(name string, cell func(*vm.Result) string) {
		cells := []string{name}
		for _, r := range results {
			cells = append(cells, cell(r))
		}
		t.AddRow(cells...)
	}
	row("total time", func(r *vm.Result) string { return r.TotalTime.String() })
	row("gc time", func(r *vm.Result) string { return r.GCTime.String() })
	row("mean gc pause", func(r *vm.Result) string { return meanPause(r.GCStats).String() })
	row("max gc pause", func(r *vm.Result) string { return r.GCStats.MaxPause.String() })
	row("collections", func(r *vm.Result) string { return fmt.Sprintf("%d", r.GCStats.Collections()) })
	if slices.ContainsFunc(results, nonDefaultGC) {
		row("gc phases s/s/c", func(r *vm.Result) string { return formatPhases(r.GCPhases) })
		row("conc gc cpu", func(r *vm.Result) string { return r.ConcGCCPUTime.String() })
	}
	if slices.ContainsFunc(results, func(r *vm.Result) bool { return r.MemTraffic > 0 }) {
		row("mem-bw stall", func(r *vm.Result) string { return r.MemBWStall.String() })
	}
	row("lifespan cdf@1KB", func(r *vm.Result) string { return report.FormatPct(r.Lifespans.FractionBelow(1024)) })
	row("mean lifespan", func(r *vm.Result) string { return formatBytes(int64(r.Lifespans.Mean())) })
	row("lock contentions", func(r *vm.Result) string { return report.FormatCount(r.LockContentions) })
	row("utilization", func(r *vm.Result) string { return fmt.Sprintf("%.2f", r.Utilization) })
}

// nonDefaultGC reports whether a run collected under a GC policy other
// than the stw-serial default, which is when the GC-policy rows and
// columns of the compare and rows tables appear.
func nonDefaultGC(r *vm.Result) bool { return r.GCPolicy != "" && r.GCPolicy != gc.PolicyStwSerial }

// renderCompare builds an ablation table contrasting the scenarios'
// results at their largest thread counts. A Baseline/Modified pair heads
// its columns "baseline" and "modified"; a Scenarios list heads them with
// the scenario names, the first being the baseline.
func renderCompare(in *inputs) (*report.Table, error) {
	headers := in.labels
	if in.spec.Baseline != "" {
		headers = []string{"baseline", "modified"}
	}
	results := make([]*vm.Result, len(in.sweeps))
	for i, sw := range in.sweeps {
		results[i] = sw.Points[len(sw.Points)-1].Result
	}
	return renderCompareColumns(headers, results), nil
}

// renderCompareColumns builds a compare table: one column per named
// result (the first is the baseline), each header suffixed with the run's
// policy tag when it deviates from the fifo + affinity + stw-serial
// default, so a policy A/B labels itself — the one-table shape of a whole
// policy ablation.
func renderCompareColumns(names []string, results []*vm.Result) *report.Table {
	headers := []string{"metric"}
	for i, name := range names {
		if tag := policyTag(results[i]); tag != "" {
			name += " [" + tag + "]"
		}
		headers = append(headers, name)
	}
	t := &report.Table{Headers: headers}
	compareRows(t, results)
	return t
}

// renderGoodput builds the open-system headline table: one row per
// (scenario, offered rate) with offered vs completed throughput, the
// abandonment count, the per-request latency tail, and the peak queue
// depth. The figure's point is the knee: goodput tracks offered load up
// to saturation, then flattens or collapses while the tail explodes.
func renderGoodput(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Headers: []string{"scenario", "rate/s", "offered/s", "goodput/s", "timed-out", "p50", "p99", "p99.9", "max-queue"},
	}
	for i, sw := range in.sweeps {
		label := tagLabel(in.labels[i], sw)
		for _, p := range sw.Points {
			st := p.Result.Traffic
			if st == nil {
				return nil, fmt.Errorf("core: goodput table: %s at %v req/s carries no traffic stats",
					in.labels[i], p.Rate)
			}
			pct := func(q float64) string { return sim.Time(st.Latency.Percentile(q)).String() }
			t.AddRow(label,
				fmt.Sprintf("%.0f", p.Rate),
				fmt.Sprintf("%.0f", st.OfferedPerSec(p.Result.TotalTime)),
				fmt.Sprintf("%.0f", st.GoodputPerSec(p.Result.TotalTime)),
				fmt.Sprintf("%d", st.TimedOut),
				pct(50), pct(99), pct(99.9),
				fmt.Sprintf("%d", st.QueueDepthMax))
		}
	}
	return t, nil
}

// renderUSL builds the analytic-fit table, one row per labeled sweep:
// the residual-selected model's fitted parameters, the predicted peak
// concurrency, and the worst predicted-vs-measured deviation — the
// cross-scenario shape of ROADMAP item 1's scalability diagnosis.
// Sigma tracks the paper's lock-contention factors, kappa the
// coherency-flavored ones (GC growth, memory bandwidth, placement), so
// policy ablations should reorder sigma and machine ablations kappa.
func renderUSL(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Headers: []string{"scenario", "model", "sigma", "kappa", "r2", "peak-N", "max-dev"},
		Note:    "sigma = contention (lock serialization), kappa = coherency (GC/bandwidth/placement); model picked by residual, amdahl = no measurable coherency term; peak-N '-' = saturates without a finite peak",
	}
	for i, sw := range in.sweeps {
		f, err := sw.FitUSL()
		if err != nil {
			return nil, fmt.Errorf("core: usl fit for %s: %w", in.labels[i], err)
		}
		m := f.Best()
		peak := "-"
		if n := m.PeakN(); n > 0 {
			peak = fmt.Sprintf("%d", n)
		}
		t.AddRow(tagLabel(in.labels[i], sw), m.Kind,
			fmt.Sprintf("%.4f", m.Sigma),
			fmt.Sprintf("%.6f", m.Kappa),
			fmt.Sprintf("%.4f", m.R2),
			peak,
			report.FormatPct(maxDeviation(sw, m)))
	}
	return t, nil
}

// maxDeviation is the largest relative predicted-vs-measured throughput
// error of a fitted model across a sweep's points.
func maxDeviation(sw *Sweep, m fit.Model) float64 {
	xs := sw.Throughputs()
	var worst float64
	for i, p := range sw.Points {
		if xs[i] <= 0 {
			continue
		}
		if d := math.Abs(m.Predict(float64(p.Threads))-xs[i]) / xs[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// renderUSLOutput builds one scenario's predicted-vs-measured curve:
// the measured throughput at every thread count next to both fitted
// models' predictions, with the preferred model's parameters and
// predicted peak in the footnote.
func renderUSLOutput(in *inputs) (*report.Table, error) {
	label, sw := in.labels[0], in.sweeps[0]
	f, err := sw.FitUSL()
	if err != nil {
		return nil, fmt.Errorf("core: usl fit for %s: %w", label, err)
	}
	best := f.Best()
	t := &report.Table{
		Title:   fmt.Sprintf("USL fit — %s", tagLabel(label, sw)),
		Headers: []string{"threads", "measured/s", "usl/s", "amdahl/s", "best-dev"},
	}
	xs := sw.Throughputs()
	for i, p := range sw.Points {
		n := float64(p.Threads)
		dev := 0.0
		if xs[i] > 0 {
			dev = math.Abs(best.Predict(n)-xs[i]) / xs[i]
		}
		t.AddRow(fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%.1f", xs[i]),
			fmt.Sprintf("%.1f", f.USL.Predict(n)),
			fmt.Sprintf("%.1f", f.Amdahl.Predict(n)),
			report.FormatPct(dev))
	}
	peak := "saturates without a finite peak"
	if n := best.PeakN(); n > 0 {
		peak = fmt.Sprintf("predicted peak N* = %d", n)
	}
	t.Note = fmt.Sprintf("preferred %s: sigma=%.4f kappa=%.6f r2=%.4f, %s",
		best.Kind, best.Sigma, best.Kappa, best.R2, peak)
	return t, nil
}

// renderSweepTable builds the per-scenario sweep summary: the headline
// measurements at every thread count.
func renderSweepTable(in *inputs) (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Sweep — %s", in.labels[0]),
		Headers: []string{"threads", "total", "mutator", "gc", "gc-share", "contentions", "<1KB"},
	}
	for _, p := range in.sweeps[0].Points {
		r := p.Result
		t.AddRow(fmt.Sprintf("%d", p.Threads),
			r.TotalTime.String(), r.MutatorTime.String(), r.GCTime.String(),
			report.FormatPct(r.GCShare()),
			report.FormatCount(r.LockContentions),
			report.FormatPct(r.Lifespans.FractionBelow(1024)))
	}
	return t, nil
}

// renderRows builds one row per scenario from its largest point — the
// shape of a design-choice study, where each scenario is one setting of
// the knob under study. The concurrent-GC columns appear only when a row
// ran a GC policy other than stw-serial, and the pretenured column only
// when a row pretenured, as compareRows does for its rows.
func renderRows(in *inputs) (*report.Table, error) {
	results := make([]*vm.Result, len(in.sweeps))
	for i, sw := range in.sweeps {
		results[i] = sw.Points[len(sw.Points)-1].Result
	}
	conc := slices.ContainsFunc(results, nonDefaultGC)
	pretenured := slices.ContainsFunc(results, func(r *vm.Result) bool { return r.HeapStats.PretenuredAllocs > 0 })
	headers := []string{"scenario", "total", "mutator", "gc", "gc-share", "minor", "full",
		"mean-minor-pause", "max-pause", "copied-MB", "promoted-MB"}
	if conc {
		headers = append(headers, "conc-cycles", "conc-cpu")
	}
	if pretenured {
		headers = append(headers, "pretenured")
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Scenarios at %d threads", results[0].Threads),
		Headers: headers,
	}
	for i, r := range results {
		var meanMinor sim.Time
		if r.GCStats.MinorCount > 0 {
			meanMinor = r.GCStats.MinorTime / sim.Time(r.GCStats.MinorCount)
		}
		row := []string{tagLabel(in.labels[i], in.sweeps[i]),
			r.TotalTime.String(), r.MutatorTime.String(), r.GCTime.String(),
			report.FormatPct(r.GCShare()),
			fmt.Sprintf("%d", r.GCStats.MinorCount),
			fmt.Sprintf("%d", r.GCStats.FullCount),
			meanMinor.String(),
			r.GCStats.MaxPause.String(),
			fmt.Sprintf("%.2f", float64(r.GCStats.CopiedBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(r.GCStats.PromotedBytes)/(1<<20))}
		if conc {
			row = append(row, fmt.Sprintf("%d", r.ConcCycles), r.ConcGCCPUTime.String())
		}
		if pretenured {
			row = append(row, fmt.Sprintf("%d", r.HeapStats.PretenuredAllocs))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// renderReplication summarizes a scenario's repeats: mean, stddev, and
// range of the headline metrics at each repeat's largest thread count.
func renderReplication(in *inputs) (*report.Table, error) {
	var totals, gcs, cdfs, conts []float64
	for _, sw := range in.repeats {
		r := sw.Points[len(sw.Points)-1].Result
		totals = append(totals, r.TotalTime.Seconds()*1000)
		gcs = append(gcs, r.GCTime.Seconds()*1000)
		cdfs = append(cdfs, 100*r.Lifespans.FractionBelow(1024))
		conts = append(conts, float64(r.LockContentions))
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Replication — %s, %d repeats", in.labels[0], len(in.repeats)),
		Headers: []string{"metric", "mean", "stddev", "min", "max"},
		Note:    "repeats derive their seeds from the scenario seed; the spread bounds seed sensitivity",
	}
	row := func(name, unit string, xs []float64) {
		sm := metrics.Summarize(xs)
		t.AddRow(name,
			fmt.Sprintf("%.2f%s", sm.Mean, unit),
			fmt.Sprintf("%.2f", sm.Stddev),
			fmt.Sprintf("%.2f", sm.Min),
			fmt.Sprintf("%.2f", sm.Max))
	}
	row("total time", "ms", totals)
	row("gc time", "ms", gcs)
	row("objects <1KB", "%", cdfs)
	row("lock contentions", "", conts)
	return t, nil
}
