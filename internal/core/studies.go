package core

import (
	"context"
	"fmt"

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

// studySpec picks the workload and thread count for the studies: xalan at
// the top of the sweep, where every GC effect is strongest.
func (s *Suite) studySpec() (workload.Spec, int, error) {
	spec, ok := workload.Lookup("xalan")
	if !ok {
		return workload.Spec{}, 0, fmt.Errorf("core: xalan spec missing")
	}
	_, hi := s.loHi()
	return spec.Scale(s.cfg.Scale), hi, nil
}

// StudyHeapFactor sweeps the heap-size multiple — the paper's "3x the
// minimum heap" methodology knob (§II-C). Shrinking the heap multiplies
// collections and GC time; growing it buys them back. This validates the
// generational cost model against the standard GC time/space trade-off.
func (s *Suite) StudyHeapFactor(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Study — heap factor sweep (xalan @ %d threads)", threads),
		Headers: []string{"heap-factor", "total", "gc", "gc-share", "minor", "full", "promoted-MB"},
		Note:    "the paper runs everything at 3x the minimum heap; the GC time/space trade-off validates the heap model",
	}
	for _, factor := range []float64{1.5, 2, 3, 4, 6} {
		res, err := s.eng.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: s.cfg.Seed, HeapFactor: factor,
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
	return s.artifact(ctx, "StudyHeapFactor", t, nil)
}

// StudyGCWorkers sweeps the parallel GC thread count, validating the
// synchronization-limited speedup curve of the collection cost model
// (HotSpot defaults to 33 workers on the 48-core testbed).
func (s *Suite) StudyGCWorkers(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Study — GC worker sweep (xalan @ %d threads)", threads),
		Headers: []string{"workers", "gc", "mean-pause", "max-pause"},
		Note:    "pause time divides across workers with contention-limited efficiency, never linearly",
	}
	for _, w := range []int{1, 2, 4, 8, 16, 33} {
		res, err := s.eng.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: s.cfg.Seed, GC: gc.Config{Workers: w},
		})
		if err != nil {
			return nil, fmt.Errorf("core: gc workers %d: %w", w, err)
		}
		t.AddRow(fmt.Sprintf("%d", w), res.GCTime.String(),
			meanPause(res.GCPauses).String(), maxPause(res.GCPauses).String())
	}
	return s.artifact(ctx, "StudyGCWorkers", t, nil)
}

// StudyTenuring sweeps the tenuring threshold: promote-early floods the
// old generation (more full collections), promote-late recopies survivors
// in the nursery. The paper's survivor-copying story (§III-B) lives on
// exactly this dial.
func (s *Suite) StudyTenuring(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Study — tenuring threshold sweep (xalan @ %d threads)", threads),
		Headers: []string{"threshold", "gc", "copied-MB", "promoted-MB", "full-gcs"},
	}
	for _, th := range []uint8{1, 2, 4, 8} {
		res, err := s.eng.Run(ctx, spec, vm.Config{
			Threads: threads, Seed: s.cfg.Seed, GC: gc.Config{TenuringThreshold: th},
		})
		if err != nil {
			return nil, fmt.Errorf("core: tenuring %d: %w", th, err)
		}
		t.AddRow(fmt.Sprintf("%d", th), res.GCTime.String(),
			fmt.Sprintf("%.2f", float64(res.GCStats.CopiedBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(res.GCStats.PromotedBytes)/(1<<20)),
			fmt.Sprintf("%d", res.GCStats.FullCount))
	}
	return s.artifact(ctx, "StudyTenuring", t, nil)
}

// StudyNUMA contrasts the NUMA machine against a hypothetical flat
// (uniform-memory) 48-core machine, isolating how much of the mutator
// slowdown at high thread counts the remote-access model contributes.
func (s *Suite) StudyNUMA(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
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
		res, err := s.eng.Run(ctx, spec, vm.Config{Machine: m.cfg, Threads: threads, Seed: s.cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", m.name, err)
		}
		t.AddRow(m.name, res.TotalTime.String(), res.MutatorTime.String(), res.GCTime.String())
	}
	return s.artifact(ctx, "StudyNUMA", t, nil)
}

// StudyCollector contrasts the paper's stop-the-world throughput
// collector with the simulator's concurrent (CMS-style) extension on the
// server workload — the application class the paper's §IV says suffers
// most from pause times. The comparison shows the classic trade: the
// concurrent collector converts stop-the-world full collections into
// background CPU consumption (mutator dilation) plus brief bracketing
// pauses.
func (s *Suite) StudyCollector(ctx context.Context) (*report.Table, error) {
	spec, ok := workload.Lookup("server")
	if !ok {
		return nil, fmt.Errorf("core: server spec missing")
	}
	spec = spec.Scale(s.cfg.Scale)
	_, hi := s.loHi()

	t := &report.Table{
		Title: fmt.Sprintf("Study — throughput vs concurrent collector (server @ %d threads, 1.6x heap)", hi),
		Headers: []string{"collector", "total", "stw-gc", "max-pause", "full-gcs",
			"conc-cycles", "conc-cpu"},
		Note: "the concurrent collector trades stop-the-world time for background GC CPU and fragmentation",
	}
	for _, mode := range []struct {
		name string
		conc bool
	}{{"throughput (paper)", false}, {"concurrent (CMS-like)", true}} {
		cfg := vm.Config{Threads: hi, Seed: s.cfg.Seed, HeapFactor: 1.6}
		cfg.GC.Concurrent = mode.conc
		if mode.conc {
			cfg.GC.TriggerRatio = 0.5
		}
		res, err := s.eng.Run(ctx, spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: collector study %s: %w", mode.name, err)
		}
		t.AddRow(mode.name, res.TotalTime.String(), res.GCTime.String(),
			maxPause(res.GCPauses).String(),
			fmt.Sprintf("%d", res.GCStats.FullCount),
			fmt.Sprintf("%d", res.ConcCycles),
			res.ConcGCCPUTime.String())
	}
	return s.artifact(ctx, "StudyCollector", t, nil)
}

// StudyPretenuring evaluates allocation-site pretenuring — the classic
// JVM countermeasure to exactly the failure the paper diagnoses: once
// lifespan-stretched objects stop flowing through the nursery, the
// survivor copying that inflates minor pauses at high thread counts
// disappears with them.
func (s *Suite) StudyPretenuring(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
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
		res, err := s.eng.Run(ctx, spec, vm.Config{Threads: threads, Seed: s.cfg.Seed, Pretenuring: mode.on})
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
	return s.artifact(ctx, "StudyPretenuring", t, nil)
}

// StudyReplication reruns the headline configuration under several seeds
// and reports mean and standard deviation of the key metrics —
// methodological due diligence that the conclusions do not hinge on one
// random stream.
func (s *Suite) StudyReplication(ctx context.Context) (*report.Table, error) {
	spec, threads, err := s.studySpec()
	if err != nil {
		return nil, err
	}
	var results []*vm.Result
	for i := 0; i < 5; i++ {
		res, err := s.eng.Run(ctx, spec, vm.Config{Threads: threads, Seed: deriveSeed(s.cfg.Seed, i)})
		if err != nil {
			return nil, fmt.Errorf("core: replication seed %d: %w", i, err)
		}
		results = append(results, res)
	}
	t := replicationTable(results)
	t.Title = fmt.Sprintf("Study — seed replication, 5 seeds (xalan @ %d threads)", threads)
	t.Note = "every figure in this repository is deterministic per seed; this table bounds the across-seed spread"
	return s.artifact(ctx, "StudyReplication", t, nil)
}

// AllStudies regenerates the design-choice study tables.
func (s *Suite) AllStudies(ctx context.Context) ([]*report.Table, error) {
	gens := []func(context.Context) (*report.Table, error){
		s.StudyHeapFactor, s.StudyGCWorkers, s.StudyTenuring, s.StudyNUMA,
		s.StudyCollector, s.StudyPretenuring, s.StudyReplication,
	}
	var out []*report.Table
	for _, g := range gens {
		t, err := g(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
