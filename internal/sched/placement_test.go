package sched

import (
	"testing"

	"javasim/internal/sim"
)

func TestUnknownPlacementPanicsAtConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown placement did not panic")
		}
	}()
	New(sim.New(), multiCoreMachine(2), Config{Placement: "no-such-placement"})
}

// TestRoundRobinPlacementSpreadsThreads checks that simultaneous wakeups
// land on distinct cores in rotation, where affinity would also spread
// them but by load, and that the scheduler reports its placement name.
func TestRoundRobinPlacementSpreadsThreads(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(4), Config{Placement: PlacementRoundRobin})
	if sc.PlacementName() != PlacementRoundRobin {
		t.Fatalf("placement = %q", sc.PlacementName())
	}
	var cores []int
	for i := 0; i < 4; i++ {
		th := sc.NewThread("w", 0)
		sc.Submit(th, sim.Microsecond, func() { cores = append(cores, th.Core()) })
	}
	s.Run()
	seen := map[int]bool{}
	for _, c := range cores {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin placed 4 threads on %d distinct cores (%v), want 4", len(seen), cores)
	}
}

// TestLeastLoadedPlacementIgnoresAffinity pins load on core 0 and checks
// that a rewaking thread whose last core is the loaded one moves to an
// empty queue instead of waiting behind it.
func TestLeastLoadedPlacementIgnoresAffinity(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{Placement: PlacementLeastLoaded})
	hog := sc.NewThread("hog", 0)
	worker := sc.NewThread("worker", 0)
	// Both start on core 0 (least loaded picks index order: hog -> 0,
	// worker -> 1). Run the worker once, then resubmit it while the hog
	// still occupies its core.
	sc.Submit(hog, 50*sim.Microsecond, func() {})
	var workerCores []int
	sc.Submit(worker, sim.Microsecond, func() {
		workerCores = append(workerCores, worker.Core())
		sc.Submit(worker, sim.Microsecond, func() {
			workerCores = append(workerCores, worker.Core())
		})
	})
	s.Run()
	if len(workerCores) != 2 {
		t.Fatalf("worker ran %d segments, want 2", len(workerCores))
	}
	if workerCores[0] != workerCores[1] {
		t.Errorf("least-loaded moved the worker from core %d to %d with no load delta",
			workerCores[0], workerCores[1])
	}
}

// TestAffinityPlacementKeepsLastCore re-wakes a thread on an otherwise
// idle machine and checks it returns to the core it warmed.
func TestAffinityPlacementKeepsLastCore(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(4), Config{})
	th := sc.NewThread("w", 0)
	var first, second int
	sc.Submit(th, sim.Microsecond, func() {
		first = th.Core()
		sc.Submit(th, sim.Microsecond, func() { second = th.Core() })
	})
	s.Run()
	if first != second {
		t.Errorf("affinity migrated an idle rewake: %d -> %d", first, second)
	}
	if th.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", th.Migrations())
	}
}
