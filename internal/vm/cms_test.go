package vm

import (
	"testing"

	"javasim/internal/gc"
	"javasim/internal/workload"
)

// cmsSpec is a configuration with enough old-generation pressure to
// trigger concurrent cycles: the server workload's session cache under a
// tight heap.
func cmsSpec() workload.Spec {
	spec, _ := workload.Registry.Get("server")
	return spec.Scale(0.5)
}

func TestConcurrentCycleRuns(t *testing.T) {
	res, err := Run(cmsSpec(), Config{
		Threads: 32, Seed: 42, HeapFactor: 2,
		GCPolicy: gc.PolicyConcurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConcCycles == 0 {
		t.Fatal("no concurrent cycle completed despite old-gen pressure")
	}
	if res.ConcGCCPUTime <= 0 {
		t.Error("concurrent cycles ran but consumed no CPU")
	}
	if res.HeapStats.SweepCommits != res.ConcCycles {
		t.Errorf("sweep commits %d != cycles %d", res.HeapStats.SweepCommits, res.ConcCycles)
	}
	// Initial-mark and remark pauses are part of the recorded stop-the-
	// world time.
	if res.GCStats.ConcPauseTime <= 0 {
		t.Error("no initial-mark/remark pause time recorded")
	}
	// Conservation still holds.
	if res.Lifespans.Total() != res.ObjectsAllocated {
		t.Error("lifespan conservation broken in concurrent mode")
	}
}

func TestConcurrentModeDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(cmsSpec(), Config{
			Threads: 16, Seed: 7, HeapFactor: 2,
			GCPolicy: gc.PolicyConcurrent,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || a.ConcCycles != b.ConcCycles ||
		a.ConcGCCPUTime != b.ConcGCCPUTime {
		t.Error("concurrent mode nondeterministic across identical seeds")
	}
}

// TestConcurrentAvoidsFullGC: in a configuration where the throughput
// collector is forced into stop-the-world full collections, the
// concurrent collector should reclaim the old generation in the
// background and reduce (or eliminate) them.
func TestConcurrentAvoidsFullGC(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.5)
	base, err := Run(spec, Config{Threads: 48, Seed: 42, HeapFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Run(spec, Config{Threads: 48, Seed: 42, HeapFactor: 2,
		GCPolicy: gc.PolicyConcurrent, GC: gc.Config{TriggerRatio: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if base.GCStats.FullCount == 0 {
		t.Skip("baseline had no full collections at this scale; nothing to avoid")
	}
	if conc.GCStats.FullCount >= base.GCStats.FullCount && conc.ConcCycles == 0 {
		t.Errorf("concurrent mode: %d full GCs (baseline %d) and no cycles ran",
			conc.GCStats.FullCount, base.GCStats.FullCount)
	}
	t.Logf("full GCs: throughput=%d concurrent=%d (cycles=%d, conc CPU=%v)",
		base.GCStats.FullCount, conc.GCStats.FullCount, conc.ConcCycles, conc.ConcGCCPUTime)
}

// TestConcurrentModeFailure: under extreme pressure the concurrent
// collector falls back to a compacting full collection and the run still
// completes — CMS's concurrent-mode-failure path.
func TestConcurrentModeFailure(t *testing.T) {
	spec := cmsSpec()
	res, err := Run(spec, Config{
		Threads: 32, Seed: 42, HeapFactor: 1.4,
		GCPolicy: gc.PolicyConcurrent,
	})
	if err != nil {
		t.Skipf("run failed outright under extreme pressure: %v", err)
	}
	if res.GCStats.FullCount == 0 {
		t.Skip("no fallback full collection at this pressure")
	}
	// After a fallback, fragmentation was compacted away at least once and
	// the run finished consistently.
	if res.Lifespans.Total() != res.ObjectsAllocated {
		t.Error("conservation broken after concurrent mode failure")
	}
}

func TestConcurrentOffByDefault(t *testing.T) {
	res, err := Run(cmsSpec(), Config{Threads: 8, Seed: 1, HeapFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConcCycles != 0 || res.ConcGCCPUTime != 0 {
		t.Error("concurrent machinery active under the default stw-serial policy")
	}
}
