package core

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// testdataPlans loads every testdata/*.json plan, named
// "testdata/<file>", in file order.
func testdataPlans(t *testing.T) ([]string, []*Plan) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata plans: %v", err)
	}
	var names []string
	var plans []*Plan
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := LoadPlan(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		names = append(names, "testdata/"+filepath.Base(path))
		plans = append(plans, p)
	}
	return names, plans
}

// auditedPlans are PaperPlan at the golden configuration and every
// testdata plan, by name.
func auditedPlans(t *testing.T) ([]string, []*Plan) {
	names, plans := testdataPlans(t)
	paper := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02, Seed: 12345})
	return append([]string{"PaperPlan"}, names...), append([]*Plan{paper}, plans...)
}

// TestPlanPointsPassAudit runs every audited plan and audits the result
// of every point it simulates with vm.Audit.
func TestPlanPointsPassAudit(t *testing.T) {
	names, plans := auditedPlans(t)
	for i, p := range plans {
		var runs int
		var mu sync.Mutex
		audit := func(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
			res, err := vm.RunContext(ctx, spec, cfg)
			if err == nil {
				if aerr := vm.Audit(res, spec, cfg); aerr != nil {
					t.Errorf("%s: %s at %d threads, seed %d: %v", names[i], spec.Name, cfg.Threads, cfg.Seed, aerr)
				}
				mu.Lock()
				runs++
				mu.Unlock()
			}
			return res, err
		}
		if _, err := NewEngine(WithParallelism(2), WithRunner(audit)).RunPlan(context.Background(), p); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if runs == 0 {
			t.Errorf("%s: no point simulated", names[i])
		}
	}
}

// checkPrints compares every point of x with core.Fingerprint and the
// canonical config of the point: its memoized or computed fingerprint,
// its canonical thread count and its sweep's digest. hit says whether
// the sweeps' fingerprints must have come from the memo.
func checkPrints(t *testing.T, name string, x *execution, hit bool) {
	t.Helper()
	for _, sw := range x.sweeps {
		if fromMemo := sw.memoKey == ""; fromMemo != hit {
			t.Errorf("%s: sweep %s seed %d: from the memo %v, want %v", name, sw.out.Spec.Name, sw.base.Seed, fromMemo, hit)
		}
		keys := make([]string, len(sw.out.Points))
		for i := range keys {
			cfg := sw.point(i)
			keys[i], _ = Fingerprint(sw.out.Spec, cfg)
			if got := sw.prints.keys[i]; got != keys[i] {
				t.Errorf("%s: %s point %d: key %q, Fingerprint %q", name, sw.out.Spec.Name, i, got, keys[i])
			}
			if got, want := sw.prints.threads[i], cfg.Canonical().Threads; got != want {
				t.Errorf("%s: %s point %d: %d canonical threads, want %d", name, sw.out.Spec.Name, i, got, want)
			}
		}
		if got, want := sw.out.key, sweepKey(keys); got != want {
			t.Errorf("%s: %s seed %d: sweep digest differs from its fingerprints'", name, sw.out.Spec.Name, sw.base.Seed)
		}
	}
}

// TestFingerprintMemoMatchesFingerprint compiles every audited plan on a
// fresh engine, where every sweep misses the fingerprint memo, runs it,
// and compiles it again, where every sweep hits: both times each point's
// key equals core.Fingerprint of its config. One more plan has sweeps
// that differ only in their thread counts or only in their rates.
func TestFingerprintMemoMatchesFingerprint(t *testing.T) {
	names, plans := auditedPlans(t)
	open := func(rates ...float64) *TrafficSpec {
		return &TrafficSpec{Process: traffic.ProcessPoisson, Rates: rates, Threads: 4, Requests: 100}
	}
	names = append(names, "axes")
	plans = append(plans, &Plan{Seed: 9, Scale: 0.02, Scenarios: []Scenario{
		{Name: "a", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2, 4}},
		{Name: "b", Workload: workload.NameRef("xalan"), ThreadCounts: []int{2, 3}},
		{Name: "c", Workload: workload.NameRef("server"), Scale: 0.2, Traffic: open(100000, 200000)},
		{Name: "d", Workload: workload.NameRef("server"), Scale: 0.2, Traffic: open(100000, 300000)},
	}})
	for i, p := range plans {
		eng := NewEngine(WithParallelism(2))
		for _, hit := range []bool{false, true} {
			x, err := eng.compilePlan(p)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			checkPrints(t, names[i], x, hit)
			x.release(eng)
			if !hit {
				if _, err := eng.RunPlan(context.Background(), p); err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
			}
		}
		if n := eng.tapes.Len(); n != 0 {
			t.Errorf("%s: %d providers left in the table", names[i], n)
		}
	}
}

// TestFingerprintMemoSkipsSinks sweeps twice with a trace sink on the
// base config: the points have no fingerprint and the memo stays empty.
// The same sweep without the sink is memoized once.
func TestFingerprintMemoSkipsSinks(t *testing.T) {
	eng := NewEngine(WithParallelism(2))
	spec := testSpec(t, "xalan", 0.02)
	for range 2 {
		x := &execution{}
		sw := x.add(eng.compileSweep(spec, SweepConfig{ThreadCounts: []int{2, 4}, Base: vm.Config{Seed: 3, TraceSink: &trace.MemorySink{}}}, nil))
		if err := eng.execute(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		for i, key := range sw.prints.keys {
			if key != "" || sw.memoKey != "" {
				t.Errorf("point %d of a traced sweep has key %q, memo key %q", i, key, sw.memoKey)
			}
		}
		if n := eng.prints.len(); n != 0 {
			t.Fatalf("traced sweeps stored %d memo entries", n)
		}
	}
	for range 2 {
		if _, err := eng.Sweep(context.Background(), spec, SweepConfig{ThreadCounts: []int{2, 4}, Base: vm.Config{Seed: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.prints.len(); n != 1 {
		t.Errorf("untraced sweeps stored %d memo entries, want 1", n)
	}
}

// eventLog records events in the order observers receive them.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) Observe(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// TestPlanEventOrder pins the observer stream of a plan, cold and warm,
// at parallelism 1 and 2. Every sweep of the plan has its own workload
// and seed, so events name their sweep: each SweepDone comes exactly
// once, after all of its sweep's SweepPointDone events; each
// ScenarioDone comes exactly once, after its sweeps' SweepDone events;
// PlanDone comes once and last.
func TestPlanEventOrder(t *testing.T) {
	p := &Plan{Name: "events", Scale: 0.02, ThreadCounts: []int{2, 4, 8}, Scenarios: []Scenario{
		{Name: "xalan", Workload: workload.NameRef("xalan"), Seed: 1, Outputs: []Output{OutputSweep}},
		{Name: "xalan-rep", Workload: workload.NameRef("xalan"), Seed: 2, Repeats: 2,
			Overrides: &ConfigOverrides{LockPolicy: "restricted"}, Outputs: []Output{OutputReplication}},
		{Name: "jython", Workload: workload.NameRef("jython"), Seed: 3, ThreadCounts: []int{2}},
		{Name: "open", Workload: workload.NameRef("server"), Seed: 4, Scale: 0.2, Outputs: []Output{OutputGoodput},
			Traffic: &TrafficSpec{Process: traffic.ProcessPoisson, Rates: []float64{100000, 200000}, Threads: 4, Requests: 200}},
	}}
	type sweepID struct {
		workload string
		seed     uint64
	}
	points := map[sweepID]int{ // points per sweep
		{"xalan", 1}: 3, {"xalan", 2}: 3, {"xalan", 1002}: 3, {"jython", 3}: 1, {"server", 4}: 2,
	}
	scenarioSweeps := map[string][]sweepID{
		"xalan":     {{"xalan", 1}},
		"xalan-rep": {{"xalan", 2}, {"xalan", 1002}},
		"jython":    {{"jython", 3}},
		"open":      {{"server", 4}},
	}
	for _, par := range []int{1, 2} {
		log := &eventLog{}
		eng := NewEngine(WithParallelism(par), WithObserver(log))
		for _, run := range []string{"cold", "warm"} {
			log.events = nil
			if _, err := eng.RunPlan(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			done := map[sweepID]int{}    // SweepPointDone so far
			swept := map[sweepID]int{}   // SweepDone so far
			finished := map[string]int{} // ScenarioDone so far
			for i, ev := range log.events {
				id := sweepID{ev.Workload, ev.Seed}
				switch ev.Kind {
				case SweepPointDone:
					done[id]++
					if swept[id] != 0 {
						t.Errorf("par %d %s: point of %v after its SweepDone", par, run, id)
					}
				case SweepDone:
					swept[id]++
					if done[id] != points[id] || swept[id] != 1 {
						t.Errorf("par %d %s: SweepDone %d of %v after %d of %d points", par, run, swept[id], id, done[id], points[id])
					}
				case ScenarioDone:
					finished[ev.Scenario]++
					for _, id := range scenarioSweeps[ev.Scenario] {
						if swept[id] != 1 {
							t.Errorf("par %d %s: ScenarioDone %s before its sweep %v", par, run, ev.Scenario, id)
						}
					}
				case PlanDone:
					if i != len(log.events)-1 || log.events[i].Plan != p.Name {
						t.Errorf("par %d %s: PlanDone is event %d of %d", par, run, i+1, len(log.events))
					}
				}
			}
			for id := range points {
				if swept[id] != 1 {
					t.Errorf("par %d %s: %v swept %d times", par, run, id, swept[id])
				}
			}
			for name := range scenarioSweeps {
				if finished[name] != 1 {
					t.Errorf("par %d %s: scenario %s finished %d times", par, run, name, finished[name])
				}
			}
		}
	}
}
