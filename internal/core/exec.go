package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"javasim/internal/vm"
	"javasim/internal/workload"
)

// This file is the execution path Engine.RunPlan and Engine.Sweep share:
// work compiles into one flat list of points in plan order, and up to
// WithParallelism workers, the calling goroutine among them, claim those
// points from one counter. The worker that finishes a sweep's last point
// completes the sweep; the one that completes a scenario's last sweep
// renders the scenario's outputs.

// execution is compiled work: every point in plan order, the sweeps they
// belong to and, for a plan, the scenarios those sweeps make up.
type execution struct {
	points []pointRef
	sweeps []*sweepExec
	scens  []*scenarioExec
	// serial runs the points on the calling goroutine alone: a trace
	// sink or lock profiler observes one run at a time, in point order.
	serial bool
}

// pointRef is one point of an execution: point i of sweep sw.
type pointRef struct {
	sw *sweepExec
	i  int
}

// sweepExec is one compiled sweep: a scenario's repeat, or Engine.Sweep's
// only sweep. It holds a reference to its warm-start provider in the
// engine's table from compilation until its last point finishes.
type sweepExec struct {
	// out is the sweep being measured: its points carry their thread
	// count and rate from compilation, and results as they finish.
	out    *Sweep
	base   vm.Config
	open   bool // the points vary offered rate, not thread count
	scen   *scenarioExec
	snaps  *vm.SnapshotProvider
	ctx    context.Context // carries snaps; set when execution starts
	prints *sweepPrints
	// memoKey is the sweep input's key in the engine's fingerprint memo
	// when prints were computed afresh and may be stored, else "".
	memoKey string
	left    atomic.Int32 // points not yet finished
}

// sweepPrints are what the fingerprint memo keeps for one sweep input:
// each point's fingerprint ("" when the sweep carries a sink) and
// canonical thread count, and the digest of the fingerprints that keys
// the artifact memo (see sweepKey).
type sweepPrints struct {
	keys    []string
	threads []int
	digest  string
}

// scenarioExec is one compiled plan scenario.
type scenarioExec struct {
	sc   *Scenario
	seed uint64
	res  *ScenarioResult // its Sweeps, repeat 0 first, set at compilation
	left atomic.Int32    // sweeps not yet finished
}

// point returns the config point i runs: the base with the point's
// thread count and rate, and as many cores as threads (the paper's
// methodology).
func (sw *sweepExec) point(i int) vm.Config {
	p := sw.out.Points[i]
	cfg := sw.base
	cfg.Threads = p.Threads
	if sw.open {
		cfg.Traffic.RatePerSec = p.Rate
	}
	cfg.Cores = 0
	return cfg
}

// pointErr names point i in err, wrapped by its scenario when it has one.
func (sw *sweepExec) pointErr(i int, err error) error {
	if p := sw.out.Points[i]; sw.open {
		err = fmt.Errorf("core: sweep %s at %v req/s: %w", sw.out.Spec.Name, p.Rate, err)
	} else {
		err = fmt.Errorf("core: sweep %s at %d threads: %w", sw.out.Spec.Name, p.Threads, err)
	}
	return sw.scen.wrap(err)
}

// wrap names the scenario in err; a nil scenario (Engine.Sweep) adds
// nothing.
func (sc *scenarioExec) wrap(err error) error {
	if sc == nil {
		return err
	}
	return fmt.Errorf("core: scenario %s: %w", sc.sc.Name, err)
}

// compileSweep resolves one sweep: it lays out its points, acquires its
// warm-start provider, so sweeps compiled together over one (workload,
// seed) share one draw, and fingerprints the points through the memo.
func (e *Engine) compileSweep(spec workload.Spec, cfg SweepConfig, scen *scenarioExec) *sweepExec {
	sw := &sweepExec{out: &Sweep{Spec: spec}, base: cfg.Base, open: len(cfg.Rates) > 0, scen: scen}
	if sw.open {
		threads := cfg.Base.Threads
		if threads <= 0 {
			threads = DefaultOpenThreads
		}
		for _, r := range cfg.Rates {
			sw.out.Points = append(sw.out.Points, Point{Threads: threads, Rate: r})
		}
	} else {
		for _, n := range cfg.threadCounts() {
			sw.out.Points = append(sw.out.Points, Point{Threads: n})
		}
	}
	sw.left.Store(int32(len(sw.out.Points)))
	sw.snaps = e.tapes.Acquire(spec, cfg.Base)
	e.fingerprints(sw)
	sw.out.key = sw.prints.digest
	return sw
}

// fingerprints fills in sw.prints from the engine's fingerprint memo,
// keyed by the encodings of the spec, the base config and the points'
// axis values. On a miss it computes them, encoding the spec once for
// every point, and sets sw.memoKey so that memoize can store them. A
// sweep carrying a trace sink or lock profiler has no fingerprints and
// bypasses the memo.
func (e *Engine) fingerprints(sw *sweepExec) {
	n := len(sw.out.Points)
	fp := &sweepPrints{keys: make([]string, n), threads: make([]int, n)}
	sw.prints = fp
	ks := keyScratches.Get().(*keyScratch)
	defer keyScratches.Put(ks)
	// A sink makes every point uncacheable, as in canonKey.
	ok := sw.base.TraceSink == nil && sw.base.LockProfiler == nil
	prefix := ks.buf[:0]
	if ok {
		prefix, ok = keyPrefix(prefix, &sw.out.Spec)
	}
	b := prefix
	if ok {
		b, ok = appendSweepInput(b, &sw.base, sw.open, sw.out.Points)
	}
	if ok && e.prints != nil {
		if memo, hit := e.prints.get(string(b)); hit {
			ks.buf = b
			sw.prints = memo
			return
		}
		sw.memoKey = string(b)
	}
	for i := range n {
		ks.canon = sw.point(i).Canonical()
		fp.threads[i] = ks.canon.Threads
		if ok {
			b, ok = appendKey(b[:len(prefix)], &ks.canon, &fp.keys[i])
		}
	}
	ks.buf = b
	if !ok {
		clear(fp.keys) // unencodable: no point is cacheable
		sw.memoKey = ""
	}
	fp.digest = sweepKey(fp.keys)
}

// memoize stores fingerprints computed afresh for a sweep in the memo.
// Only completed sweeps are stored, so a sweep that failed, say on a
// machine name registered later, is fingerprinted again next time.
func (e *Engine) memoize(sw *sweepExec) {
	if sw.memoKey != "" {
		e.prints.put(sw.memoKey, sw.prints)
	}
}

// compilePlan resolves every scenario of the validated plan p into
// sweeps, repeat 0 first, and lists their points in plan order. On error
// it has released every provider it acquired.
func (e *Engine) compilePlan(p *Plan) (*execution, error) {
	x := &execution{}
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		spec, err := sc.Workload.Resolve()
		if err != nil {
			x.release(e)
			return nil, fmt.Errorf("core: scenario %s: %w", sc.Name, err)
		}
		if scale := sc.scale(p); scale != 1 {
			spec = spec.Scale(scale)
		}
		seed := sc.seed(p)
		base := vm.Config{Seed: seed, LockPolicy: p.LockPolicy, GCPolicy: p.GCPolicy, MachineName: p.Machine}
		base.Sched.Placement = p.Placement
		sc.Overrides.apply(&base)
		swCfg := SweepConfig{ThreadCounts: sc.threadCounts(p)}
		if sc.Traffic != nil {
			// The rate becomes the sweep axis; each point fills it in.
			base.Threads = sc.Traffic.threads()
			base.Traffic = sc.Traffic.config(0)
			swCfg = SweepConfig{Rates: sc.Traffic.Rates}
		}
		run := &scenarioExec{sc: sc, seed: seed, res: &ScenarioResult{Name: sc.Name, Workload: spec.Name}}
		run.left.Store(int32(sc.repeats()))
		for r := range sc.repeats() {
			cfg := swCfg
			cfg.Base = base
			cfg.Base.Seed = deriveSeed(seed, r)
			sw := x.add(e.compileSweep(spec, cfg, run))
			run.res.Sweeps = append(run.res.Sweeps, sw.out)
		}
		x.scens = append(x.scens, run)
	}
	return x, nil
}

// add appends sw and its points to the execution.
func (x *execution) add(sw *sweepExec) *sweepExec {
	x.sweeps = append(x.sweeps, sw)
	for i := range sw.out.Points {
		x.points = append(x.points, pointRef{sw, i})
	}
	x.serial = x.serial || sw.base.TraceSink != nil || sw.base.LockProfiler != nil
	return sw
}

// release returns the providers of the sweeps that did not finish, after
// a failure or cancellation; a finished sweep released its own.
func (x *execution) release(e *Engine) {
	for _, sw := range x.sweeps {
		if sw.snaps != nil {
			e.tapes.Release(sw.snaps)
			sw.snaps = nil
		}
	}
}

// execute runs every point of x. The first real failure cancels the
// points not yet started and is returned; a canceled ctx returns
// ctx.Err(). Either way every provider is released when execute returns.
func (e *Engine) execute(ctx context.Context, x *execution) error {
	defer x.release(e)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, sw := range x.sweeps {
		// Every point of the sweep forks its workload generation from
		// the shared provider's snapshot (see vm.Snapshot). The snapshot
		// rides the context, never the config, so fingerprints are those
		// of cold runs; it resolves on the first point that actually
		// simulates, so a fully cached sweep draws nothing.
		sw.ctx = vm.ContextWithSnapshotProvider(runCtx, sw.snaps)
	}
	var (
		mu     sync.Mutex
		failed error
		next   atomic.Int64
	)
	workers := max(min(e.parallelism, len(x.points)), 1)
	if x.serial {
		workers = 1
	}
	// Each worker lends the points it simulates one arena in turn, so a
	// run regrows none of the registry pages, collector lists or death
	// rings the worker's previous run grew (see vm.Arena).
	arenas := make([]vm.Arena, workers)
	work := func(arena *vm.Arena) {
		for runCtx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(x.points) {
				return
			}
			if err := e.runPoint(x.points[i], arena); err != nil {
				mu.Lock()
				if failed == nil {
					failed = err
					cancel()
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(&arenas[w])
		}()
	}
	work(&arenas[0])
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return failed
}

// runPoint runs one point, answering it from the cache tiers when it has
// a fingerprint (see Engine.run), and simulating it on arena otherwise.
// Finishing a sweep's last point finishes the sweep.
func (e *Engine) runPoint(pt pointRef, arena *vm.Arena) error {
	sw, i := pt.sw, pt.i
	cfg := sw.point(i)
	res, err := e.run(sw.ctx, sw.out.Spec, cfg, sw.prints.threads[i], sw.prints.keys[i], arena)
	if err != nil {
		return sw.pointErr(i, err)
	}
	sw.out.Points[i].Result = res
	e.emit(sw.ctx, Event{Kind: SweepPointDone, Workload: sw.out.Spec.Name, Threads: cfg.Threads, Seed: cfg.Seed})
	if sw.left.Add(-1) == 0 {
		return e.finishSweep(sw)
	}
	return nil
}

// finishSweep completes sw once its last point has finished: it releases
// the provider, stores freshly computed fingerprints in the memo and,
// when sw completes its scenario, renders the scenario's outputs.
func (e *Engine) finishSweep(sw *sweepExec) error {
	e.tapes.Release(sw.snaps)
	sw.snaps = nil
	e.memoize(sw)
	e.emit(sw.ctx, Event{Kind: SweepDone, Workload: sw.out.Spec.Name, Seed: sw.base.Seed})
	if sc := sw.scen; sc != nil && sc.left.Add(-1) == 0 {
		return e.finishScenario(sw.ctx, sc)
	}
	return nil
}

// finishScenario renders a scenario's outputs once all its sweeps have
// finished.
func (e *Engine) finishScenario(ctx context.Context, sc *scenarioExec) error {
	sweeps := sc.res.Sweeps
	for _, out := range sc.sc.Outputs {
		t, err := e.render(out, &inputs{spec: &ReportSpec{}, labels: []string{sc.sc.Name}, sweeps: sweeps[:1], repeats: sweeps})
		if err != nil {
			return sc.wrap(err)
		}
		sc.res.Tables = append(sc.res.Tables, t)
	}
	e.emit(ctx, Event{Kind: ScenarioDone, Scenario: sc.sc.Name, Workload: sc.res.Workload, Seed: sc.seed})
	return nil
}
