package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/lockprof"
	"javasim/internal/machine"
	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

func testSpec(t testing.TB, name string, scale float64) workload.Spec {
	t.Helper()
	spec, err := workload.Registry.Get(name)
	if err != nil {
		t.Fatalf("unknown workload %s", name)
	}
	return spec.Scale(scale)
}

// countingObserver tallies events and tracks the maximum number of
// simulations in flight at once. Safe for concurrent use.
type countingObserver struct {
	mu       sync.Mutex
	counts   map[EventKind]int
	inFlight int
	maxSeen  int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{counts: map[EventKind]int{}}
}

func (o *countingObserver) Observe(ev Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts[ev.Kind]++
	switch ev.Kind {
	case RunStarted:
		o.inFlight++
		if o.inFlight > o.maxSeen {
			o.maxSeen = o.inFlight
		}
	case RunFinished:
		o.inFlight--
	}
}

func (o *countingObserver) count(k EventKind) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts[k]
}

func (o *countingObserver) maxInFlight() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.maxSeen
}

func TestEngineRunMemoizes(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithObserver(obs))
	spec := testSpec(t, "xalan", 0.02)
	cfg := vm.Config{Threads: 4, Seed: 7}

	a, err := e.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second identical run did not return the memoized *Result")
	}
	if got := obs.count(RunStarted); got != 1 {
		t.Errorf("simulations = %d, want 1", got)
	}
	if got := obs.count(RunCached); got != 1 {
		t.Errorf("cache-hit events = %d, want 1", got)
	}
	st := e.CacheStats()
	if st.Misses != 1 || st.MemoryHits+st.DiskHits+st.Shared != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineRunCanonicalizesConfigKeys(t *testing.T) {
	e := NewEngine()
	spec := testSpec(t, "jython", 0.02)
	// Threads 0 defaults to 4; both configs describe the same run and must
	// share one cache entry.
	a, err := e.Run(context.Background(), spec, vm.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec, vm.Config{Threads: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-value and explicit-default configs did not share a cache entry")
	}
}

// TestFingerprintCanonicalizesGCDefaults pins the collector's and the
// machine's defaults into the cache key: StudyPlan's tenure-2 scenario is
// the default run and must hit its cache entry, and so must a run that
// names the default machine model.
func TestFingerprintCanonicalizesGCDefaults(t *testing.T) {
	spec := testSpec(t, "xalan", 0.02)
	unset, ok := Fingerprint(spec, vm.Config{Threads: 8, Seed: 7})
	if !ok {
		t.Fatal("plain config should be cacheable")
	}
	explicit, _ := Fingerprint(spec, vm.Config{Threads: 8, Seed: 7, GC: gc.Config{TenuringThreshold: 2}})
	if unset != explicit {
		t.Error("explicit default TenuringThreshold fingerprints apart from the unset one")
	}
	other, _ := Fingerprint(spec, vm.Config{Threads: 8, Seed: 7, GC: gc.Config{TenuringThreshold: 3}})
	if other == unset {
		t.Error("TenuringThreshold 3 fingerprints like the default")
	}
	named, _ := Fingerprint(spec, vm.Config{Threads: 8, Seed: 7, MachineName: machine.DefaultModel})
	if named != unset {
		t.Error("the named default machine model fingerprints apart from the unset one")
	}
}

func TestEngineSinkRunsBypassCache(t *testing.T) {
	spec := testSpec(t, "h2", 0.02)
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7}); !ok {
		t.Fatal("plain config should be cacheable")
	}
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7, LockProfiler: lockprof.New()}); ok {
		t.Error("profiler-carrying config must not be cacheable")
	}
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7, TraceSink: &trace.MemorySink{}}); ok {
		t.Error("trace-carrying config must not be cacheable")
	}
}

func TestEngineSingleflightDeduplicates(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(4), WithObserver(obs))
	spec := testSpec(t, "xalan", 0.02)
	cfg := vm.Config{Threads: 4, Seed: 9}

	const callers = 8
	results := make([]*vm.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(context.Background(), spec, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := obs.count(RunStarted); got != 1 {
		t.Errorf("concurrent identical requests ran %d simulations, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *Result", i)
		}
	}
}

func TestEngineSweepBoundsParallelism(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(2), WithObserver(obs))
	spec := testSpec(t, "sunflow", 0.02)
	sw, err := e.Sweep(context.Background(), spec, SweepConfig{
		ThreadCounts: []int{2, 3, 4, 6, 8, 12},
		Base:         vm.Config{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(sw.Points))
	}
	if got := obs.maxInFlight(); got > 2 {
		t.Errorf("max concurrent simulations = %d, want <= 2", got)
	}
	if got := obs.count(SweepPointDone); got != 6 {
		t.Errorf("sweep-point events = %d, want 6", got)
	}
	if got := obs.count(SweepDone); got != 1 {
		t.Errorf("sweep-done events = %d, want 1", got)
	}
}

// TestEngineParallelMatchesSequential runs each sweep three ways: on a
// sequential engine, on a parallel engine, and point by point through
// Engine.Run on an uncached engine. Sweeps warm-start every point from a
// shared workload tape while Engine.Run attaches none, so the third
// input is the cold reference: results must match it exactly, and each
// warm point must be stored under the fingerprint of its cold config.
func TestEngineParallelMatchesSequential(t *testing.T) {
	open := vm.Config{Threads: 4, Seed: 21, Traffic: traffic.Config{
		Process: traffic.ProcessPoisson, Requests: 200}}
	cases := []struct {
		name  string
		spec  workload.Spec
		sweep SweepConfig
	}{
		{"lusearch-threads", testSpec(t, "lusearch", 0.03),
			SweepConfig{ThreadCounts: []int{2, 4, 8}, Base: vm.Config{Seed: 21}}},
		{"server-rates", testSpec(t, "server", 0.03),
			SweepConfig{Rates: []float64{100000, 1500000}, Base: open}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			stored := &recordingStore{m: map[string]*vm.Result{}}
			seq, err := NewEngine(WithParallelism(1), WithDiskStore(stored)).Sweep(ctx, c.spec, c.sweep)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewEngine(WithParallelism(8)).Sweep(ctx, c.spec, c.sweep)
			if err != nil {
				t.Fatal(err)
			}
			cold := NewEngine(WithCache(0))
			for i, p := range seq.Points {
				if !reflect.DeepEqual(p.Result, par.Points[i].Result) {
					t.Errorf("point %d differs between sequential and parallel engines", i)
				}
				cfg := c.sweep.Base
				if c.sweep.Rates != nil {
					cfg.Traffic.RatePerSec = c.sweep.Rates[i]
				} else {
					cfg.Threads = c.sweep.ThreadCounts[i]
				}
				res, err := cold.Run(ctx, c.spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.Result, res) {
					t.Errorf("point %d differs between warm sweep and cold Engine.Run", i)
				}
				fp, ok := Fingerprint(c.spec, cfg)
				if !ok || stored.m[fp] != p.Result {
					t.Errorf("point %d was not stored under its cold fingerprint %.12s", i, fp)
				}
			}
		})
	}
}

// recordingStore is an in-memory ResultStore that keeps every Put.
type recordingStore struct {
	mu sync.Mutex
	m  map[string]*vm.Result
}

func (s *recordingStore) Get(fp string) (*vm.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[fp]
	return res, ok
}

func (s *recordingStore) Put(fp string, res *vm.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[fp] = res
}

func TestEngineSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the first simulation starts: the remaining points
	// must abort mid-run instead of draining the whole sweep.
	e := NewEngine(WithParallelism(1), WithObserver(ObserverFunc(func(ev Event) {
		if ev.Kind == RunStarted {
			cancel()
		}
	})))
	spec := testSpec(t, "xalan", 0.3)
	_, err := e.Sweep(ctx, spec, SweepConfig{
		ThreadCounts: []int{4, 8, 16, 32, 48},
		Base:         vm.Config{Seed: 3},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
}

func TestEngineRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine()
	_, err := e.Run(ctx, testSpec(t, "xalan", 0.02), vm.Config{Threads: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.CacheStats(); st.Misses != 0 {
		t.Errorf("pre-canceled run still simulated: %+v", st)
	}
}

// selectedPaperPlan is the PaperPlan report selection the paper-suite
// cache tests run: two thread counts at a tiny scale.
func selectedPaperPlan(t *testing.T, names ...string) *Plan {
	t.Helper()
	p, err := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02}).Select(names...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSuiteSweepsArePointerEqual(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithObserver(obs))
	p := selectedPaperPlan(t, "Fig1d")
	ctx := context.Background()

	a, err := e.RunPlan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := obs.count(RunStarted)
	b, err := e.RunPlan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	first, again := a.Scenario("xalan").Sweep(), b.Scenario("xalan").Sweep()
	if len(again.Points) != len(first.Points) {
		t.Fatalf("repeated run swept %d points, want %d", len(again.Points), len(first.Points))
	}
	for i := range again.Points {
		if again.Points[i].Result != first.Points[i].Result {
			t.Errorf("repeated run did not return the identical result for point %d", i)
		}
	}
	if got := obs.count(RunStarted); got != simsAfterFirst {
		t.Errorf("repeated run simulated again: %d -> %d", simsAfterFirst, got)
	}
}

func TestSuiteRepeatedFiguresHitCache(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithObserver(obs))
	ctx := context.Background()

	if _, err := e.RunPlan(ctx, selectedPaperPlan(t, "Fig1a")); err != nil {
		t.Fatal(err)
	}
	sims := obs.count(RunStarted)
	if sims == 0 {
		t.Fatal("first figure simulated nothing")
	}
	// Fig1b and Fig2 draw on the same sweeps; a second Fig1a is free too.
	if _, err := e.RunPlan(ctx, selectedPaperPlan(t, "Fig1b", "Fig2", "Fig1a")); err != nil {
		t.Fatal(err)
	}
	if got := obs.count(RunStarted); got != sims {
		t.Errorf("repeated figures re-simulated: %d -> %d", sims, got)
	}
	if got := obs.count(ArtifactRendered); got != 4 {
		t.Errorf("artifact events = %d, want 4", got)
	}
}

func TestSuiteConcurrentFigureGeneration(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(4), WithObserver(obs))
	ctx := context.Background()

	names := []string{"Fig1a", "Fig1b", "Fig1c", "Fig1d", "Fig2", "ClassificationTable", "FactorsTable"}
	var wg sync.WaitGroup
	wg.Add(len(names))
	for _, name := range names {
		p := selectedPaperPlan(t, name)
		go func() {
			defer wg.Done()
			if _, err := e.RunPlan(ctx, p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Six workloads x two thread counts: every figure shares the same 12
	// simulations no matter how many plans raced.
	if got := obs.count(RunStarted); got != 12 {
		t.Errorf("concurrent figure generation ran %d simulations, want 12", got)
	}
}

func TestResultCacheLRUEvicts(t *testing.T) {
	c := newLRU[*vm.Result](2)
	r1, r2, r3 := &vm.Result{Threads: 1}, &vm.Result{Threads: 2}, &vm.Result{Threads: 3}
	c.put("a", r1)
	c.put("b", r2)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r3)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, _ := c.get("a"); got != r1 {
		t.Error("a evicted or wrong")
	}
	if got, _ := c.get("c"); got != r3 {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestDisabledCacheStillRuns(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithCache(0), WithObserver(obs))
	spec := testSpec(t, "jython", 0.02)
	cfg := vm.Config{Threads: 2, Seed: 3}
	if _, err := e.Run(context.Background(), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if got := obs.count(RunStarted); got != 2 {
		t.Errorf("uncached engine simulated %d times, want 2", got)
	}
	if st := e.CacheStats(); st.Entries != 0 {
		t.Errorf("disabled cache holds %d results", st.Entries)
	}
}
