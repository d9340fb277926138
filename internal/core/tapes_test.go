package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// snapshotRecorder is an engine runner that notes the warm-start
// snapshot each simulated run resolves, grouped by workload and seed,
// before running it. With gate set, every run waits at the gate until
// gate's count of runs has started, so the sweeps they belong to are
// provably in flight together.
type snapshotRecorder struct {
	mu    sync.Mutex
	snaps map[string]map[*vm.Snapshot]int // "workload/seed" -> snapshot -> runs
	order []*vm.Snapshot                  // per run, in start order
	gate  *sync.WaitGroup
}

func (r *snapshotRecorder) run(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	snap := vm.SnapshotFrom(ctx)
	key := fmt.Sprintf("%s/%d", spec.Name, cfg.Seed)
	r.mu.Lock()
	if r.snaps == nil {
		r.snaps = map[string]map[*vm.Snapshot]int{}
	}
	if r.snaps[key] == nil {
		r.snaps[key] = map[*vm.Snapshot]int{}
	}
	r.snaps[key][snap]++
	r.order = append(r.order, snap)
	r.mu.Unlock()
	if r.gate != nil {
		r.gate.Done()
		r.gate.Wait()
	}
	return vm.RunContext(ctx, spec, cfg)
}

// TestConcurrentSweepsShareTapes runs two one-point sweeps at once and
// checks that their points replay one snapshot exactly when the sweeps'
// snapshot keys are equal: same spec, seed, iteration count and tape
// length. Either way the engine's table is empty once both return.
func TestConcurrentSweepsShareTapes(t *testing.T) {
	lusearch := testSpec(t, "lusearch", 0.03)
	server := testSpec(t, "server", 0.03)
	closed := vm.Config{Seed: 21}
	iterated := closed
	iterated.Iterations = 2
	reseeded := closed
	reseeded.Seed = 22
	open := vm.Config{Threads: 4, Seed: 21, Traffic: traffic.Config{
		Process: traffic.ProcessPoisson, Requests: server.TotalUnits + 100}}
	longer := open
	longer.Traffic.Requests = server.TotalUnits + 200
	threads := func(n int, base vm.Config) SweepConfig {
		return SweepConfig{ThreadCounts: []int{n}, Base: base}
	}
	rate := func(r float64, base vm.Config) SweepConfig {
		return SweepConfig{Rates: []float64{r}, Base: base}
	}
	cases := []struct {
		name  string
		spec  workload.Spec
		a, b  SweepConfig
		share bool
	}{
		{"equal-keys", lusearch, threads(2, closed), threads(3, closed), true},
		{"equal-keys-open", server, rate(100000, open), rate(200000, open), true},
		{"seed", lusearch, threads(2, closed), threads(2, reseeded), false},
		{"iterations", lusearch, threads(2, closed), threads(2, iterated), false},
		{"requests", server, rate(100000, open), rate(100000, longer), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &snapshotRecorder{gate: &sync.WaitGroup{}}
			rec.gate.Add(2)
			eng := NewEngine(WithParallelism(2), WithRunner(rec.run))
			var wg sync.WaitGroup
			for _, sw := range []SweepConfig{c.a, c.b} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := eng.Sweep(context.Background(), c.spec, sw); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if len(rec.order) != 2 || rec.order[0] == nil || rec.order[1] == nil {
				t.Fatalf("runs resolved snapshots %v, want two", rec.order)
			}
			if shared := rec.order[0] == rec.order[1]; shared != c.share {
				t.Errorf("points shared a snapshot: %v, want %v", shared, c.share)
			}
			if n := eng.tapes.Len(); n != 0 {
				t.Errorf("%d providers left in the table after both sweeps returned", n)
			}
		})
	}
}

// TestCachedSweepDrawsNothing: a sweep whose every point is a cache hit
// resolves no snapshot, so the provider it shares holds no drawn unit.
func TestCachedSweepDrawsNothing(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithParallelism(2))
	spec := testSpec(t, "lusearch", 0.03)
	sw := SweepConfig{ThreadCounts: []int{2, 4}, Base: vm.Config{Seed: 21}}
	if _, err := eng.Sweep(ctx, spec, sw); err != nil {
		t.Fatal(err)
	}
	held := eng.tapes.Acquire(spec, sw.Base)
	defer eng.tapes.Release(held)
	sims := eng.CacheStats().Misses
	if _, err := eng.Sweep(ctx, spec, sw); err != nil {
		t.Fatal(err)
	}
	if n := eng.CacheStats().Misses - sims; n != 0 {
		t.Fatalf("the repeated sweep simulated %d points", n)
	}
	if n := held.Snapshot().Drawn(); n != 0 {
		t.Errorf("a fully cached sweep drew %d tape units", n)
	}
}

// TestPaperPlanDrawsEachTapeOnce runs PaperPlan at the golden
// configuration and checks that every run of one workload and seed
// replays one snapshot: xalan's sweep and its §IV ablation scenarios
// draw xalan's tape once between them, not once per scenario.
func TestPaperPlanDrawsEachTapeOnce(t *testing.T) {
	rec := &snapshotRecorder{}
	eng := NewEngine(WithRunner(rec.run))
	_, err := eng.RunPlan(context.Background(), PaperPlan(ExperimentConfig{
		ThreadCounts: []int{2, 4},
		Scale:        0.02,
		Seed:         12345,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for key, snaps := range rec.snaps {
		if len(snaps) != 1 {
			t.Errorf("%s: runs replayed %d snapshots, want 1", key, len(snaps))
		}
		for snap := range snaps {
			if snap == nil {
				t.Errorf("%s: a run resolved no snapshot", key)
			}
		}
	}
	// Two sweep points plus the biased and compartmented ablations; the
	// xalan-max ablation is the sweep's last point, served by the cache.
	for snap, runs := range rec.snaps["xalan/12345"] {
		if runs != 4 {
			t.Errorf("xalan snapshot %p served %d runs, want 4", snap, runs)
		}
	}
	if n := eng.tapes.Len(); n != 0 {
		t.Errorf("%d providers left in the table after RunPlan returned", n)
	}
}
