package vm

import (
	"testing"

	"javasim/internal/sim"
	"javasim/internal/workload"
)

func TestMultiIterationRun(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.03)
	single, err := Run(spec, Config{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(spec, Config{Threads: 4, Seed: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Iterations) != 1 {
		t.Errorf("single run has %d iteration records", len(single.Iterations))
	}
	if len(multi.Iterations) != 3 {
		t.Fatalf("multi run has %d iteration records, want 3", len(multi.Iterations))
	}
	// Per-iteration durations sum to the total.
	var sum sim.Time
	for i, it := range multi.Iterations {
		if it.Index != i {
			t.Errorf("iteration %d has index %d", i, it.Index)
		}
		if it.Duration <= 0 {
			t.Errorf("iteration %d has duration %v", i, it.Duration)
		}
		sum += it.Duration
	}
	if sum != multi.TotalTime {
		t.Errorf("iteration durations sum to %v, total %v", sum, multi.TotalTime)
	}
	// Three iterations allocate roughly three times the objects and
	// execute exactly three times the units.
	var units int64
	for _, u := range multi.PerThreadUnits {
		units += u
	}
	if units != int64(3*spec.TotalUnits) {
		t.Errorf("units = %d, want %d", units, 3*spec.TotalUnits)
	}
	if multi.ObjectsAllocated < 2*single.ObjectsAllocated {
		t.Errorf("multi allocated %d, single %d — iterations not executing",
			multi.ObjectsAllocated, single.ObjectsAllocated)
	}
	// Conservation across iteration boundaries.
	if multi.Lifespans.Total() != multi.ObjectsAllocated {
		t.Errorf("lifespans %d != objects %d", multi.Lifespans.Total(), multi.ObjectsAllocated)
	}
}

func TestMultiIterationDeterminism(t *testing.T) {
	spec := workload.LusearchSpec().Scale(0.02)
	run := func() *Result {
		res, err := Run(spec, Config{Threads: 4, Seed: 5, Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || a.ObjectsAllocated != b.ObjectsAllocated {
		t.Error("multi-iteration runs nondeterministic")
	}
}

func TestIterationGCAccounting(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.1)
	res, err := Run(spec, Config{Threads: 8, Seed: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var gcSum sim.Time
	var colls int
	for _, it := range res.Iterations {
		gcSum += it.GCTime
		colls += it.Collections
	}
	if gcSum != res.GCTime {
		t.Errorf("per-iteration GC sums to %v, total %v", gcSum, res.GCTime)
	}
	if int64(colls) != res.GCStats.Collections() {
		t.Errorf("per-iteration collections sum to %d, total %d", colls, res.GCStats.Collections())
	}
}

func TestIterationsWithCappedWorkload(t *testing.T) {
	// Capped distributions leave most threads without work every
	// iteration; thread revival must handle permanently idle threads.
	spec := workload.JythonSpec().Scale(0.02)
	res, err := Run(spec, Config{Threads: 8, Seed: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, u := range res.PerThreadUnits {
		units += u
	}
	if units != int64(2*spec.TotalUnits) {
		t.Errorf("units = %d, want %d", units, 2*spec.TotalUnits)
	}
}
