package vm

import (
	"reflect"
	"strings"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/sim"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// TestHeapTooSmallSurfacesOOM pins the failure mode when the heap barely
// exceeds the minimum: the run must fail with a clear OutOfMemoryError,
// not hang or panic.
func TestHeapTooSmallSurfacesOOM(t *testing.T) {
	spec := workload.EclipseSpec().Scale(0.05)
	// Factor 1.0 leaves no slack over the long-lived footprint estimate.
	_, err := Run(spec, Config{Threads: 4, Seed: 1, HeapFactor: 1.0})
	if err == nil {
		t.Skip("run survived at 1.0x heap — estimate is conservative for this scale")
	}
	if !strings.Contains(err.Error(), "OutOfMemoryError") && !strings.Contains(err.Error(), "collection failed") {
		t.Errorf("unexpected failure mode: %v", err)
	}
}

func TestLargerHeapMeansFewerCollections(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.2)
	small, err := Run(spec, Config{Threads: 8, Seed: 1, HeapFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(spec, Config{Threads: 8, Seed: 1, HeapFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	if big.GCStats.MinorCount >= small.GCStats.MinorCount {
		t.Errorf("6x heap ran %d minors, 2x heap ran %d — space/time trade-off inverted",
			big.GCStats.MinorCount, small.GCStats.MinorCount)
	}
	if big.GCTime >= small.GCTime {
		t.Errorf("6x heap GC time %v not below 2x heap %v", big.GCTime, small.GCTime)
	}
}

func TestMoreThreadsThanUnits(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.001) // 12 units
	res, err := Run(spec, Config{Threads: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	busy := 0
	for _, u := range res.PerThreadUnits {
		total += u
		if u > 0 {
			busy++
		}
	}
	if total != int64(spec.TotalUnits) {
		t.Errorf("executed %d units, want %d", total, spec.TotalUnits)
	}
	if busy > spec.TotalUnits {
		t.Errorf("%d busy threads for %d units", busy, spec.TotalUnits)
	}
}

func TestSingleThread(t *testing.T) {
	res, err := Run(workload.SunflowSpec().Scale(0.02), Config{Threads: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LockContentions != 0 {
		t.Errorf("single-threaded run had %d contentions", res.LockContentions)
	}
}

func TestCompartmentsExceedingThreads(t *testing.T) {
	res, err := Run(workload.XalanSpec().Scale(0.05), Config{Threads: 2, Seed: 1, Compartments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("degenerate run")
	}
}

// TestBiasPhaseDefault: bias groups without a phase length run with the
// 2ms default, the same run as an explicit 2ms phase.
func TestBiasPhaseDefault(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.03)
	cfg := Config{Threads: 8, Seed: 1}
	cfg.Sched.Bias.Groups = 2
	unset, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched.Bias.PhaseLength = 2 * sim.Millisecond
	explicit, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unset, explicit) {
		t.Error("unset bias phase diverged from an explicit 2ms phase")
	}
}

func TestBiasAndCompartmentsCombined(t *testing.T) {
	cfg := Config{Threads: 16, Seed: 1, Compartments: 4}
	cfg.Sched.Bias.Groups = 2
	cfg.Sched.Bias.PhaseLength = sim.Millisecond
	res, err := Run(workload.XalanSpec().Scale(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifespans.Total() != res.ObjectsAllocated {
		t.Error("conservation broken under combined future-work features")
	}
}

func TestServerWorkloadBarrierFree(t *testing.T) {
	spec, err := workload.Registry.Get("server")
	if err != nil {
		t.Fatal("server extension missing")
	}
	res, err := Run(spec.Scale(0.05), Config{Threads: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No phase barriers: the only locks are the queue and the shared set;
	// the barrier monitor exists but must never be contended... it is
	// never even acquired.
	if res.Lifespans.Total() != res.ObjectsAllocated {
		t.Error("server conservation broken")
	}
}

func TestNoHelperThreads(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.02)
	spec.HelperThreads = 0
	if _, err := Run(spec, Config{Threads: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestGCWorkersOverride(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.1)
	one, err := Run(spec, Config{Threads: 8, Seed: 1, GC: gc.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(spec, Config{Threads: 8, Seed: 1, GC: gc.Config{Workers: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if many.GCTime >= one.GCTime {
		t.Errorf("16 GC workers (%v) not faster than 1 (%v)", many.GCTime, one.GCTime)
	}
}

// TestFullGCReclaimsAndRunContinues drives a workload into full
// collections (tiny heap factor) and verifies the run completes with the
// full-GC count visible.
func TestFullGCPath(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.3)
	res, err := Run(spec, Config{Threads: 32, Seed: 1, HeapFactor: 1.6})
	if err != nil {
		t.Fatalf("run failed under heap pressure: %v", err)
	}
	if res.GCStats.FullCount == 0 {
		t.Skip("no full GC at this scale/seed; heap pressure insufficient")
	}
	if res.GCStats.FullCount > 0 && res.GCTime <= 0 {
		t.Error("full GCs happened but GC time is zero")
	}
}

// TestTTSPBoundedUnderBias verifies the safepoint gate override: with
// phase-biased scheduling, time-to-safepoint must stay near the
// no-bias level rather than ballooning to the phase length.
func TestTTSPBoundedUnderBias(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.2)
	base, err := Run(spec, Config{Threads: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Threads: 16, Seed: 1}
	cfg.Sched.Bias.Groups = 2
	cfg.Sched.Bias.PhaseLength = 4 * sim.Millisecond
	biased, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	basePer := base.SafepointTime / sim.Time(base.GCStats.Collections())
	biasPer := biased.SafepointTime / sim.Time(biased.GCStats.Collections())
	// Without the override, each safepoint would wait most of a 4ms phase;
	// with it, per-GC TTSP should stay within an order of magnitude of the
	// baseline and far below the phase length.
	if biasPer > cfg.Sched.Bias.PhaseLength/4 {
		t.Errorf("per-GC TTSP under bias %v approaches phase length (baseline %v)", biasPer, basePer)
	}
}

// TestArrivalFactoryWithoutProcessFails: an open-named arrival factory
// that returns neither a process nor an error is a configuration error,
// not a silent fall-back to the closed loop.
func TestArrivalFactoryWithoutProcessFails(t *testing.T) {
	const name = "test-no-process"
	// The catalog is process-global, so a repeated run (go test -count=2)
	// finds the entry already there.
	err := traffic.Processes.Register(name, func(traffic.Config) (traffic.Process, error) { return nil, nil })
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	_, err = Run(openServer(), openCfg(name, 100000))
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("run with a nil arrival process: err = %v, want an error naming %q", err, name)
	}
}
