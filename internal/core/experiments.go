package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"javasim/internal/gc"
	"javasim/internal/report"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// ExperimentConfig parameterizes the reproduction suite. The zero value
// reproduces the paper's setup at full scale.
type ExperimentConfig struct {
	// ThreadCounts is the sweep; nil means the paper's {4,8,16,24,32,48}.
	ThreadCounts []int
	// Scale shrinks every workload (0 < Scale <= 1); 0 means full scale.
	// Benchmarks and CI use reduced scales.
	Scale float64
	// Seed drives all randomness; 0 means 42.
	Seed uint64
	// Workloads restricts the benchmark set; nil means all six.
	Workloads []workload.Spec
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if len(c.ThreadCounts) == 0 {
		c.ThreadCounts = DefaultThreadCounts
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.PaperSet()
	}
	return c
}

// Suite lazily runs and caches the per-workload sweeps behind every
// figure and table, so regenerating all artifacts costs one sweep per
// workload. The sweep cache is concurrency-safe: any number of
// goroutines may generate figures, studies, and ablations on one suite
// at once, and a sweep two of them need simulates exactly once — the
// second caller waits for the first and receives the identical *Sweep
// pointer. Construct suites through Engine.Suite.
type Suite struct {
	cfg ExperimentConfig
	eng *Engine

	mu     sync.Mutex
	sweeps map[string]*sweepCell
}

// sweepCell memoizes one workload's sweep, singleflight-style: the first
// requester becomes the leader and runs the sweep; later requesters wait
// on done. Failed sweeps are evicted so a live context can retry after a
// canceled one.
type sweepCell struct {
	done chan struct{}
	sw   *Sweep
	err  error
}

// Config returns the defaulted configuration.
func (s *Suite) Config() ExperimentConfig { return s.cfg }

// Engine returns the engine the suite dispatches through.
func (s *Suite) Engine() *Engine { return s.eng }

// SweepFor returns the memoized sweep of the named workload, simulating
// it (through the engine's bounded pool) at most once per suite no matter
// how many figures, studies, or concurrent callers ask for it. Repeated
// calls return the identical *Sweep pointer. The names are those of
// PaperPlan's scenarios: one per suite workload, plus the single-point
// §IV ablation scenarios (xalan-max, xalan-biased, xalan-compartmented).
func (s *Suite) SweepFor(ctx context.Context, name string) (*Sweep, error) {
	s.mu.Lock()
	cell, ok := s.sweeps[name]
	if !ok {
		cell = &sweepCell{done: make(chan struct{})}
		s.sweeps[name] = cell
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-cell.done:
			if cell.err != nil && ctx.Err() == nil &&
				(errors.Is(cell.err, context.Canceled) || errors.Is(cell.err, context.DeadlineExceeded)) {
				// The leader's context died but ours is live; the cell was
				// evicted, so retry and likely become the new leader.
				return s.SweepFor(ctx, name)
			}
			return cell.sw, cell.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	cell.sw, cell.err = s.runSweep(ctx, name)
	if cell.err != nil {
		// Do not poison the cache: a canceled or failed sweep must be
		// retryable by the next caller.
		s.mu.Lock()
		delete(s.sweeps, name)
		s.mu.Unlock()
	}
	close(cell.done)
	return cell.sw, cell.err
}

// runSweep executes the sweep of the suite's PaperPlan scenario of that
// name, through the same helper RunPlan uses, so the suite and the plan
// simulate identical points.
func (s *Suite) runSweep(ctx context.Context, name string) (*Sweep, error) {
	p := PaperPlan(s.cfg)
	sc := p.scenario(name)
	if sc == nil {
		return nil, fmt.Errorf("core: workload %q not in suite", name)
	}
	_, sweeps, err := s.eng.scenarioSweeps(ctx, p, sc)
	if err != nil {
		return nil, err
	}
	return sweeps[0], nil
}

// artifact emits the rendered-artifact event on success and passes the
// generator's result through.
func (s *Suite) artifact(ctx context.Context, name string, t *report.Table, err error) (*report.Table, error) {
	if err == nil {
		s.eng.emit(ctx, Event{Kind: ArtifactRendered, Artifact: name})
	}
	return t, err
}

// paperArtifact renders the named PaperPlan report through the kind
// table and emits its ArtifactRendered event. The suite keeps no copy of
// any artifact's title, note, scenario set, or ablation config: PaperPlan
// is their one declaration.
func (s *Suite) paperArtifact(ctx context.Context, name string) (*report.Table, error) {
	p := PaperPlan(s.cfg)
	rs := p.report(name)
	names := rs.named()
	sweeps := make([]*Sweep, len(names))
	for i, n := range names {
		var err error
		if sweeps[i], err = s.SweepFor(ctx, n); err != nil {
			return nil, err
		}
	}
	t, err := render(rs.Kind, &inputs{spec: rs, labels: names, sweeps: sweeps})
	return s.artifact(ctx, name, t, err)
}

// Fig1a reproduces Figure 1a: total lock acquisitions per run versus
// thread count, for all six benchmarks.
func (s *Suite) Fig1a(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "Fig1a")
}

// Fig1b reproduces Figure 1b: lock contention instances versus threads.
func (s *Suite) Fig1b(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "Fig1b")
}

// cdfLimits are the lifespan bucket boundaries (bytes) used for the
// Figure 1c/1d distributions.
var cdfLimits = []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// LifespanCDF reproduces a Figure 1c/1d panel: the cumulative lifespan
// distribution of one workload at two thread counts.
func (s *Suite) LifespanCDF(ctx context.Context, name string, lowThreads, highThreads int) (*report.Table, error) {
	sw, err := s.SweepFor(ctx, name)
	if err != nil {
		return nil, err
	}
	return renderLifespanCDF(&inputs{spec: &ReportSpec{LowThreads: lowThreads, HighThreads: highThreads},
		labels: []string{name}, sweeps: []*Sweep{sw}})
}

// Fig1c reproduces Figure 1c: eclipse's lifetime CDF at 4 vs 48 threads
// (insensitive to thread count — non-scalable).
func (s *Suite) Fig1c(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "Fig1c")
}

// Fig1d reproduces Figure 1d: xalan's lifetime CDF at 4 vs 48 threads
// (lifespans stretch as threads scale — the paper's headline GC finding).
func (s *Suite) Fig1d(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "Fig1d")
}

func (s *Suite) loHi() (int, int) {
	tc := s.cfg.ThreadCounts
	return tc[0], tc[len(tc)-1]
}

// Fig2 reproduces Figure 2: the mutator/GC time split of the scalable
// trio across the thread sweep.
func (s *Suite) Fig2(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "Fig2")
}

// Fig2Chart renders Figure 2 as an ASCII chart: per scalable workload,
// the mutator and GC time series against the thread sweep — the quickest
// way to eyeball the crossing shapes in a terminal.
func (s *Suite) Fig2Chart(ctx context.Context) ([]*report.Chart, error) {
	var out []*report.Chart
	for _, name := range PaperPlan(s.cfg).report("Fig2").Scenarios {
		sw, err := s.SweepFor(ctx, name)
		if err != nil {
			return nil, err
		}
		ticks := make([]string, len(sw.Points))
		for i, p := range sw.Points {
			ticks[i] = fmt.Sprintf("%d", p.Threads)
		}
		mut := sw.MutatorSeconds()
		gcs := sw.GCSeconds()
		ms := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = x * 1000
			}
			return out
		}
		out = append(out, &report.Chart{
			Title:  fmt.Sprintf("Figure 2 — %s: mutator vs GC time (ms)", name),
			XLabel: "threads (= cores)",
			XTicks: ticks,
			Series: []report.Series{
				{Name: "mutator ms", Points: ms(mut)},
				{Name: "gc ms", Points: ms(gcs)},
			},
		})
	}
	return out, nil
}

// ClassificationTable reproduces the §II-C characterization: which
// applications are scalable, with speedups and the paper agreement check.
func (s *Suite) ClassificationTable(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "ClassificationTable")
}

// WorkDistributionTable reproduces the §III workload-distribution
// observation: non-scalable applications concentrate work in 3-4 threads.
func (s *Suite) WorkDistributionTable(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "WorkDistributionTable")
}

func imbalance(shares []float64) float64 {
	var max, sum float64
	for _, s := range shares {
		if s > max {
			max = s
		}
		sum += s
	}
	if sum == 0 || len(shares) == 0 {
		return 1
	}
	return max / (sum / float64(len(shares)))
}

// FactorsTable summarizes the factor decomposition for every workload —
// the paper's analysis condensed to one row per benchmark.
func (s *Suite) FactorsTable(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "FactorsTable")
}

// AblationBias evaluates the paper's first future-work proposal (§IV):
// phase-biased scheduling, which staggers worker-thread groups in time to
// reduce lifetime interference. Reported on xalan at the largest count.
func (s *Suite) AblationBias(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "AblationBias")
}

// AblationCompartments evaluates the paper's second future-work proposal
// (§IV): a compartmentalized heap isolating thread groups' objects, which
// should shorten collection pauses.
func (s *Suite) AblationCompartments(ctx context.Context) (*report.Table, error) {
	return s.paperArtifact(ctx, "AblationCompartments")
}

func meanPause(ps []gc.Pause) sim.Time {
	if len(ps) == 0 {
		return 0
	}
	var sum sim.Time
	for _, p := range ps {
		sum += p.Duration
	}
	return sum / sim.Time(len(ps))
}

func maxPause(ps []gc.Pause) sim.Time {
	var m sim.Time
	for _, p := range ps {
		if p.Duration > m {
			m = p.Duration
		}
	}
	return m
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// AllArtifacts regenerates every figure and table of the reproduction, in
// the paper's order, by executing the declarative PaperPlan through the
// suite's engine: all sweeps dispatch concurrently through the bounded
// pool, identical points are memoized, and a canceled context aborts the
// in-flight sweeps promptly. The rendered tables are byte-identical to
// calling the individual figure/table methods.
func (s *Suite) AllArtifacts(ctx context.Context) ([]*report.Table, error) {
	pr, err := s.eng.RunPlan(ctx, PaperPlan(s.cfg))
	if err != nil {
		return nil, err
	}
	return pr.Reports, nil
}
