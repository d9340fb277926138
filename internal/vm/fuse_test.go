package vm

import (
	"context"
	"reflect"
	"testing"

	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// The fusion contract: a fused run and an unfused run of the same
// configuration produce bit-identical Results. These tests exercise it
// across the whole paper workload set and the feature matrix that
// interacts with the interpreter loop (policies, bias, compartments,
// iterations, pretenuring).

// runPair executes cfg with fusion on and off and returns both results,
// asserting the fused run actually fused at least once when expectFusion
// is set (a differential test that never fuses proves nothing).
func runPair(t *testing.T, spec workload.Spec, cfg Config, expectFusion bool) (*Result, *Result) {
	t.Helper()
	fusedRuns := 0
	fuseObserver = func(int) { fusedRuns++ }
	defer func() { fuseObserver = nil }()

	fused, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s fused run: %v", spec.Name, err)
	}
	if expectFusion && fusedRuns == 0 {
		t.Errorf("%s: fusion never engaged; differential comparison is vacuous", spec.Name)
	}
	observed := fusedRuns

	unfused, err := runContext(context.Background(), spec, cfg, false, maxVirtualTime)
	if err != nil {
		t.Fatalf("%s unfused run: %v", spec.Name, err)
	}
	if fusedRuns != observed {
		t.Errorf("%s: unfused run still fused (%d -> %d runs)", spec.Name, observed, fusedRuns)
	}
	return fused, unfused
}

func diffResults(t *testing.T, name string, fused, unfused *Result) {
	t.Helper()
	if reflect.DeepEqual(fused, unfused) {
		return
	}
	// Narrow the mismatch for the failure message.
	fv, uv := reflect.ValueOf(*fused), reflect.ValueOf(*unfused)
	for i := 0; i < fv.NumField(); i++ {
		if !reflect.DeepEqual(fv.Field(i).Interface(), uv.Field(i).Interface()) {
			t.Errorf("%s: field %s differs under fusion:\n  fused:   %+v\n  unfused: %+v",
				name, fv.Type().Field(i).Name, fv.Field(i).Interface(), uv.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Errorf("%s: results differ under fusion (no single field isolated)", name)
	}
}

// TestFusionDifferentialPaperSet runs every paper workload at two thread
// counts and requires identical Results with and without fusion.
func TestFusionDifferentialPaperSet(t *testing.T) {
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.04)
		for _, threads := range []int{4, 16} {
			fused, unfused := runPair(t, spec, Config{Threads: threads, Seed: 11}, threads == 4)
			diffResults(t, spec.Name, fused, unfused)
		}
	}
}

// TestFusionDifferentialFeatureMatrix covers the VM features that touch
// the interpreter loop most directly. Fusion must either stay invisible
// or disqualify itself (pretenuring disables alloc fusion; compute runs
// still fuse) — in every case the Results must match exactly.
func TestFusionDifferentialFeatureMatrix(t *testing.T) {
	xalan := workload.XalanSpec().Scale(0.04)
	sunflow := workload.SunflowSpec().Scale(0.04)
	cases := []struct {
		name string
		spec workload.Spec
		cfg  Config
	}{
		{"iterations", xalan, Config{Threads: 4, Seed: 3, Iterations: 2}},
		{"pretenuring", xalan, Config{Threads: 4, Seed: 3, Pretenuring: true}},
		{"spin-then-park", xalan, Config{Threads: 8, Seed: 3, LockPolicy: "spin-then-park"}},
		{"phase-bias", sunflow, Config{Threads: 8, Seed: 3,
			Sched: sched.Config{Bias: sched.PhaseBias{Groups: 2, PhaseLength: 2 * sim.Millisecond}}}},
		{"compartment-gc", sunflow, Config{Threads: 8, Seed: 3, GCPolicy: "compartment"}},
		{"concurrent-gc", xalan, Config{Threads: 8, Seed: 3, GCPolicy: "concurrent"}},
		{"stw-parallel-gc", xalan, Config{Threads: 8, Seed: 3, GCPolicy: "stw-parallel"}},
		{"single-thread", xalan, Config{Threads: 1, Seed: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fused, unfused := runPair(t, c.spec, c.cfg, false)
			diffResults(t, c.name, fused, unfused)
		})
	}
}

// TestFusionEngagesSingleThread pins the best case: with one mutator and
// a quiet event queue, long op runs must fuse (the window is bounded only
// by helper wakeups and the run guard).
func TestFusionEngagesSingleThread(t *testing.T) {
	var fusedOps, runs int
	fuseObserver = func(n int) { fusedOps += n; runs++ }
	defer func() { fuseObserver = nil }()
	if _, err := Run(workload.SunflowSpec().Scale(0.02), Config{Threads: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if runs == 0 {
		t.Fatal("no op runs fused in a single-threaded run")
	}
	if avg := float64(fusedOps) / float64(runs); avg < 3 {
		t.Errorf("average fused run = %.1f ops, want >= 3 (window too tight?)", avg)
	}
}
