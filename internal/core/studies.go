package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"javasim/internal/gc"
	"javasim/internal/machine"
	"javasim/internal/report"
	"javasim/internal/sim"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// This file holds the design-choice studies: parameter sweeps over the
// simulator's own knobs. They are not paper artifacts; they validate that
// the cost models respond the way the real mechanisms do (and they are
// the ablations DESIGN.md's experiment index points at for the modeling
// decisions).

// study is one design-choice study: its artifact name, the registry
// workload it runs, and its body, which receives that workload at the
// config's scale and the top of the config's thread sweep, where every
// GC effect is strongest.
type study struct {
	name     string
	workload string
	run      func(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error)
}

// studies is the study table, in the order Engine.Studies runs them all.
var studies = []study{
	{"StudyHeapFactor", "xalan", studyHeapFactor},
	{"StudyGCWorkers", "xalan", studyGCWorkers},
	{"StudyTenuring", "xalan", studyTenuring},
	{"StudyNUMA", "xalan", studyNUMA},
	{"StudyCollector", "server", studyCollector},
	{"StudyPretenuring", "xalan", studyPretenuring},
	{"StudyReplication", "xalan", studyReplication},
}

// Studies regenerates the named design-choice study tables in the order
// named; no names means every study, in table order. Each finished study
// emits ArtifactRendered under its name. An unknown name is an error
// listing the known ones, returned before anything simulates.
func (e *Engine) Studies(ctx context.Context, cfg ExperimentConfig, names ...string) ([]*report.Table, error) {
	cfg = cfg.withDefaults()
	run := studies
	if len(names) > 0 {
		run = make([]study, len(names))
		for i, name := range names {
			j := slices.IndexFunc(studies, func(s study) bool { return s.name == name })
			if j < 0 {
				known := make([]string, len(studies))
				for k, s := range studies {
					known[k] = s.name
				}
				return nil, fmt.Errorf("core: unknown study %q (known: %s)", name, strings.Join(known, ", "))
			}
			run[i] = studies[j]
		}
	}
	threads := cfg.ThreadCounts[len(cfg.ThreadCounts)-1]
	var out []*report.Table
	for _, s := range run {
		spec, ok := workload.Lookup(s.workload)
		if !ok {
			return nil, fmt.Errorf("core: %s spec missing", s.workload)
		}
		t, err := s.run(ctx, e, spec.Scale(cfg.Scale), threads, cfg.Seed)
		if err != nil {
			return nil, err
		}
		e.emit(ctx, Event{Kind: ArtifactRendered, Artifact: s.name})
		out = append(out, t)
	}
	return out, nil
}

// studyHeapFactor sweeps the heap-size multiple — the paper's "3x the
// minimum heap" methodology knob (§II-C). Shrinking the heap multiplies
// collections and GC time; growing it buys them back. This validates the
// generational cost model against the standard GC time/space trade-off.
func studyHeapFactor(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Study — heap factor sweep (xalan @ %d threads)", threads),
		Headers: []string{"heap-factor", "total", "gc", "gc-share", "minor", "full", "promoted-MB"},
		Note:    "the paper runs everything at 3x the minimum heap; the GC time/space trade-off validates the heap model",
	}
	for _, factor := range []float64{1.5, 2, 3, 4, 6} {
		res, err := e.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: seed, HeapFactor: factor,
		})
		if err != nil {
			return nil, fmt.Errorf("core: heap factor %v: %w", factor, err)
		}
		t.AddRow(fmt.Sprintf("%.1fx", factor),
			res.TotalTime.String(), res.GCTime.String(),
			report.FormatPct(res.GCShare()),
			fmt.Sprintf("%d", res.GCStats.MinorCount),
			fmt.Sprintf("%d", res.GCStats.FullCount),
			fmt.Sprintf("%.2f", float64(res.GCStats.PromotedBytes)/(1<<20)))
	}
	return t, nil
}

// studyGCWorkers sweeps the parallel GC thread count, validating the
// synchronization-limited speedup curve of the collection cost model
// (HotSpot defaults to 33 workers on the 48-core testbed).
func studyGCWorkers(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Study — GC worker sweep (xalan @ %d threads)", threads),
		Headers: []string{"workers", "gc", "mean-pause", "max-pause"},
		Note:    "pause time divides across workers with contention-limited efficiency, never linearly",
	}
	for _, w := range []int{1, 2, 4, 8, 16, 33} {
		res, err := e.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: seed, GC: gc.Config{Workers: w},
		})
		if err != nil {
			return nil, fmt.Errorf("core: gc workers %d: %w", w, err)
		}
		t.AddRow(fmt.Sprintf("%d", w), res.GCTime.String(),
			meanPause(res.GCPauses).String(), maxPause(res.GCPauses).String())
	}
	return t, nil
}

// studyTenuring sweeps the tenuring threshold: promote-early floods the
// old generation (more full collections), promote-late recopies survivors
// in the nursery. The paper's survivor-copying story (§III-B) lives on
// exactly this dial.
func studyTenuring(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Study — tenuring threshold sweep (xalan @ %d threads)", threads),
		Headers: []string{"threshold", "gc", "copied-MB", "promoted-MB", "full-gcs"},
	}
	for _, th := range []uint8{1, 2, 4, 8} {
		res, err := e.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: seed, GC: gc.Config{TenuringThreshold: th},
		})
		if err != nil {
			return nil, fmt.Errorf("core: tenuring %d: %w", th, err)
		}
		t.AddRow(fmt.Sprintf("%d", th), res.GCTime.String(),
			fmt.Sprintf("%.2f", float64(res.GCStats.CopiedBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(res.GCStats.PromotedBytes)/(1<<20)),
			fmt.Sprintf("%d", res.GCStats.FullCount))
	}
	return t, nil
}

// studyNUMA contrasts the NUMA machine against a hypothetical flat
// (uniform-memory) 48-core machine, isolating how much of the mutator
// slowdown at high thread counts the remote-access model contributes.
func studyNUMA(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	numa := machine.Opteron6168()
	flat := numa
	flat.RemoteAccessPerHop = 0
	flat.MigrationCost = 0

	t := &report.Table{
		Title:   fmt.Sprintf("Study — NUMA vs flat memory (xalan @ %d threads)", threads),
		Headers: []string{"machine", "total", "mutator", "gc"},
		Note:    "the paper's testbed pays cross-socket latency above 12 threads; a flat machine is the counterfactual",
	}
	for _, m := range []struct {
		name string
		cfg  machine.Config
	}{{"opteron-6168 (NUMA)", numa}, {"flat 48-core", flat}} {
		res, err := e.Run(ctx, spec, vm.Config{Machine: m.cfg, Threads: threads, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", m.name, err)
		}
		t.AddRow(m.name, res.TotalTime.String(), res.MutatorTime.String(), res.GCTime.String())
	}
	return t, nil
}

// studyCollector contrasts the paper's stop-the-world throughput
// collector with the simulator's concurrent (CMS-style) extension on the
// server workload — the application class the paper's §IV says suffers
// most from pause times. The comparison shows the classic trade: the
// concurrent collector converts stop-the-world full collections into
// background CPU consumption (mutator dilation) plus brief bracketing
// pauses.
func studyCollector(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Study — throughput vs concurrent collector (server @ %d threads, 1.6x heap)", threads),
		Headers: []string{"collector", "total", "stw-gc", "max-pause", "full-gcs",
			"conc-cycles", "conc-cpu"},
		Note: "the concurrent collector trades stop-the-world time for background GC CPU and fragmentation",
	}
	for _, mode := range []struct {
		name string
		conc bool
	}{{"throughput (paper)", false}, {"concurrent (CMS-like)", true}} {
		cfg := vm.Config{Threads: threads, Seed: seed, HeapFactor: 1.6}
		cfg.GC.Concurrent = mode.conc
		if mode.conc {
			cfg.GC.TriggerRatio = 0.5
		}
		res, err := e.Run(ctx, spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: collector study %s: %w", mode.name, err)
		}
		t.AddRow(mode.name, res.TotalTime.String(), res.GCTime.String(),
			maxPause(res.GCPauses).String(),
			fmt.Sprintf("%d", res.GCStats.FullCount),
			fmt.Sprintf("%d", res.ConcCycles),
			res.ConcGCCPUTime.String())
	}
	return t, nil
}

// studyPretenuring evaluates allocation-site pretenuring — the classic
// JVM countermeasure to exactly the failure the paper diagnoses: once
// lifespan-stretched objects stop flowing through the nursery, the
// survivor copying that inflates minor pauses at high thread counts
// disappears with them.
func studyPretenuring(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Study — allocation-site pretenuring (xalan @ %d threads)", threads),
		Headers: []string{"mode", "gc", "copied-MB", "mean-minor-pause",
			"full-gcs", "pretenured"},
		Note: "long-lived sites allocate straight to the old generation, skipping the survivor copying the paper blames",
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"baseline", false}, {"pretenuring", true}} {
		res, err := e.Run(ctx, spec, vm.Config{Threads: threads, Seed: seed, Pretenuring: mode.on})
		if err != nil {
			return nil, fmt.Errorf("core: pretenuring study %s: %w", mode.name, err)
		}
		var minorSum sim.Time
		var minorN int64
		for _, p := range res.GCPauses {
			if p.Kind == gc.Minor {
				minorSum += p.Duration
				minorN++
			}
		}
		var meanMinor sim.Time
		if minorN > 0 {
			meanMinor = minorSum / sim.Time(minorN)
		}
		t.AddRow(mode.name, res.GCTime.String(),
			fmt.Sprintf("%.2f", float64(res.GCStats.CopiedBytes)/(1<<20)),
			meanMinor.String(),
			fmt.Sprintf("%d", res.GCStats.FullCount),
			fmt.Sprintf("%d", res.HeapStats.PretenuredAllocs))
	}
	return t, nil
}

// studyReplication reruns the headline configuration under several seeds
// and reports mean and standard deviation of the key metrics —
// methodological due diligence that the conclusions do not hinge on one
// random stream.
func studyReplication(ctx context.Context, e *Engine, spec workload.Spec, threads int, seed uint64) (*report.Table, error) {
	var results []*vm.Result
	for i := 0; i < 5; i++ {
		res, err := e.Run(ctx, spec, vm.Config{Threads: threads, Seed: deriveSeed(seed, i)})
		if err != nil {
			return nil, fmt.Errorf("core: replication seed %d: %w", i, err)
		}
		results = append(results, res)
	}
	t := replicationTable(results)
	t.Title = fmt.Sprintf("Study — seed replication, 5 seeds (xalan @ %d threads)", threads)
	t.Note = "every figure in this repository is deterministic per seed; this table bounds the across-seed spread"
	return t, nil
}
