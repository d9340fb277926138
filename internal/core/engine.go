package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"javasim/internal/report"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// Engine is the long-lived entry point of the framework: it owns a
// bounded worker pool, a concurrency-safe memoizing result cache and a
// memo of rendered artifacts, and every run, sweep, and plan dispatched
// through it shares them. Many goroutines may call an Engine
// concurrently — concurrent figure generation, batch studies, servers
// sweeping on behalf of request handlers — and the engine guarantees
// that at most WithParallelism simulations execute at once, that
// identical in-flight requests are deduplicated, and that completed
// results are memoized.
//
// Construct engines with NewEngine and functional options; the zero
// Engine is not usable.
type Engine struct {
	parallelism int
	cacheSize   int
	observers   []Observer
	store       ResultStore
	runner      Runner

	sem       chan struct{} // worker-slot semaphore, capacity = parallelism
	cache     *lru[*vm.Result]
	prints    *lru[*sweepPrints]  // point fingerprints by sweep input
	artifacts *lru[*report.Table] // rendered tables by artifactKey
	flights   flightGroup
	tapes     vm.SnapshotTable // warm-start snapshots of the sweeps in flight

	simulations atomic.Int64
	memoryHits  atomic.Int64
	diskHits    atomic.Int64
	shared      atomic.Int64
	diskWrites  atomic.Int64
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithParallelism bounds the number of simulations the engine executes
// concurrently. Values below 1 are clamped to 1; the default is
// runtime.GOMAXPROCS(0). Sweeps and plans never spawn more simulation
// goroutines than this bound.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithObserver registers an observer for the engine's progress events.
// Several observers may be registered; each receives every event.
func WithObserver(o Observer) Option {
	return func(e *Engine) {
		if o != nil {
			e.observers = append(e.observers, o)
		}
	}
}

// WithCache sizes the memoizing result cache, the memo of sweep
// fingerprints and the memo of rendered artifacts (entries, not bytes;
// each holds up to this many). A size of zero or below disables
// memoization entirely. The default is 256 entries — comfortably a full
// six-workload sweep of the paper's methodology plus every study
// configuration.
func WithCache(entries int) Option {
	return func(e *Engine) { e.cacheSize = entries }
}

// DefaultCacheEntries is the result-cache capacity used when WithCache is
// not given.
const DefaultCacheEntries = 256

// ResultStore is a persistent second cache tier behind the in-memory
// LRU, keyed by Fingerprint hashes. Implementations must be safe for
// concurrent use and must treat stored results as immutable. Get
// returning false means "not present" — a store is a cache, so it may
// drop or fail to persist entries, but it must never return a wrong or
// partially-decoded result (see javasim/internal/store for the
// content-addressed on-disk implementation).
type ResultStore interface {
	Get(fingerprint string) (*vm.Result, bool)
	Put(fingerprint string, res *vm.Result)
}

// WithDiskStore backs the engine's result cache with a persistent
// store: cache misses read through to it before simulating, and every
// completed cacheable simulation is written through, so no fingerprint
// the store has ever seen is simulated twice — across engines,
// processes, or restarts.
func WithDiskStore(s ResultStore) Option {
	return func(e *Engine) { e.store = s }
}

// Runner executes one simulation. The engine's default runner is
// vm.RunContext; WithRunner wraps or replaces it, e.g. to time each run
// or to record the warm-start snapshot a run received.
type Runner func(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error)

// WithRunner replaces the engine's simulation executor. The runner is
// invoked under the engine's parallelism bound and its results flow
// into the memoizing cache and the disk store exactly as local runs do;
// it must be deterministic for equal (spec, canonical config, seed)
// inputs or cached results will diverge from fresh ones.
func WithRunner(r Runner) Option {
	return func(e *Engine) {
		if r != nil {
			e.runner = r
		}
	}
}

// NewEngine builds an engine from the options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		parallelism: runtime.GOMAXPROCS(0),
		cacheSize:   DefaultCacheEntries,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.parallelism < 1 {
		e.parallelism = 1
	}
	if e.runner == nil {
		e.runner = vm.RunContext
	}
	e.sem = make(chan struct{}, e.parallelism)
	e.cache = newLRU[*vm.Result](e.cacheSize)
	e.prints = newLRU[*sweepPrints](e.cacheSize)
	e.artifacts = newLRU[*report.Table](e.cacheSize)
	return e
}

// CacheStats breaks the engine's cache behavior down by tier: where
// each run request was answered from, how many were deduplicated
// in-flight, and how many fell all the way through to a simulation.
type CacheStats struct {
	// MemoryHits counts requests answered from the in-memory LRU.
	MemoryHits int64
	// DiskHits counts requests answered from the disk store (the result
	// is promoted into the LRU on the way).
	DiskHits int64
	// Shared counts singleflight deduplications: requests that arrived
	// while an identical run was in flight and shared its result
	// instead of simulating.
	Shared int64
	// Misses counts requests that dispatched a simulation — the only
	// path that consumes a worker slot for a cacheable run.
	Misses int64
	// DiskWrites counts results written through to the disk store.
	DiskWrites int64
	// Entries is the number of results currently memoized in memory.
	Entries int
}

// CacheStats returns the per-tier cache counters. A plan POSTed twice
// to a daemon (even across restarts, given a disk store) shows
// Misses == 0 on its second submission.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		MemoryHits: e.memoryHits.Load(),
		DiskHits:   e.diskHits.Load(),
		Shared:     e.shared.Load(),
		Misses:     e.simulations.Load(),
		DiskWrites: e.diskWrites.Load(),
		Entries:    e.cache.len(),
	}
}

// emit delivers ev to every engine observer in registration order, then
// to the context-scoped observer, if the work was dispatched under one
// (see ContextWithObserver).
func (e *Engine) emit(ctx context.Context, ev Event) {
	for _, o := range e.observers {
		o.Observe(ev)
	}
	if o := contextObserver(ctx); o != nil {
		o.Observe(ev)
	}
}

// Run executes one benchmark configuration, answering from the memoizing
// cache when an identical run (same spec, same canonicalized config) has
// already completed, and deduplicating identical runs that are in flight
// concurrently. Cache hits return the same *vm.Result pointer; results
// must be treated as immutable. Runs carrying a TraceSink or LockProfiler
// bypass the cache, since their value is the side-effecting event stream.
//
// Run blocks until a worker slot is free (at most WithParallelism
// simulations execute concurrently, across all of the engine's callers)
// or ctx is done. A canceled context aborts the simulation at the
// simulator's next event-loop checkpoint and returns an error wrapping
// ctx.Err().
func (e *Engine) Run(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	canon := cfg.Canonical()
	key, _ := canonKey(spec, canon)
	return e.run(ctx, spec, cfg, canon.Threads, key, nil)
}

// run answers a run whose fingerprint is key from the memory tier, an
// identical run in flight, the disk store, or, failing all three, a
// simulation on arena (nil for a fresh one); threads is the canonical
// thread count its events report. A run with no fingerprint (key "") is
// not cacheable and simulates.
func (e *Engine) run(ctx context.Context, spec workload.Spec, cfg vm.Config, threads int, key string, arena *vm.Arena) (*vm.Result, error) {
	if key == "" {
		return e.simulate(ctx, spec, cfg, threads, arena)
	}
	hit := func(res *vm.Result, tier *atomic.Int64) *vm.Result {
		tier.Add(1)
		e.emit(ctx, Event{Kind: RunCached, Workload: spec.Name, Threads: threads, Seed: cfg.Seed})
		return res
	}
	for {
		if res, ok := e.cache.get(key); ok {
			return hit(res, &e.memoryHits), nil
		}
		fl, leader := e.flights.join(key)
		if leader {
			// Re-check under the flight: a previous leader may have
			// finished (and populated the cache) between our miss and our
			// join, and re-simulating a cached run would waste a slot.
			if res, ok := e.cache.get(key); ok {
				e.flights.leave(key, fl, res, nil)
				return hit(res, &e.memoryHits), nil
			}
			// Second tier: the disk store. Only the flight leader reads
			// it, so a popular fingerprint costs one read, not a herd.
			if e.store != nil {
				if res, ok := e.store.Get(key); ok {
					e.cache.put(key, res)
					e.flights.leave(key, fl, res, nil)
					return hit(res, &e.diskHits), nil
				}
			}
			res, err := e.simulate(ctx, spec, cfg, threads, arena)
			if err == nil {
				e.cache.put(key, res)
				if e.store != nil {
					e.store.Put(key, res)
					e.diskWrites.Add(1)
				}
			}
			e.flights.leave(key, fl, res, err)
			return res, err
		}
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err == nil {
			return hit(fl.res, &e.shared), nil
		}
		// The leader failed. If its failure was its own context dying, our
		// context may still be live — retry (we will likely become the new
		// leader). Any other failure is deterministic and shared.
		if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
			continue
		}
		return nil, fl.err
	}
}

// simulate acquires a worker slot and runs the VM on arena (nil for a
// fresh one); threads is the canonical thread count its events report.
func (e *Engine) simulate(ctx context.Context, spec workload.Spec, cfg vm.Config, threads int, arena *vm.Arena) (*vm.Result, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.emit(ctx, Event{Kind: RunStarted, Workload: spec.Name, Threads: threads, Seed: cfg.Seed})
	e.simulations.Add(1)
	res, err := e.runner(vm.ContextWithArena(ctx, arena), spec, cfg)
	fin := Event{Kind: RunFinished, Workload: spec.Name, Threads: threads, Seed: cfg.Seed, Err: err}
	if res != nil {
		fin.VirtualTime = res.TotalTime
	}
	e.emit(ctx, fin)
	return res, err
}

// Sweep measures spec across the configured thread counts — or, when
// cfg.Rates is set, across offered request rates at a fixed server pool —
// through the engine's worker pool: points run concurrently, but never on
// more goroutines than the engine's parallelism bound, and each point is
// memoized individually. A base config carrying a TraceSink or
// LockProfiler forces the sweep sequential so the sinks observe one
// coherent event stream per point.
//
// Sweep returns ctx.Err() as soon as the context dies; already-completed
// points stay memoized for a later retry. The first point that fails
// cancels the points not yet started, and its error is returned.
func (e *Engine) Sweep(ctx context.Context, spec workload.Spec, cfg SweepConfig) (*Sweep, error) {
	if len(cfg.Rates) > 0 && !cfg.Base.Traffic.Open() {
		return nil, fmt.Errorf("core: sweep %s: Rates set but Base.Traffic names no open arrival process", spec.Name)
	}
	x := &execution{}
	sw := x.add(e.compileSweep(spec, cfg, nil))
	if err := e.execute(ctx, x); err != nil {
		return nil, err
	}
	return sw.out, nil
}
