package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"javasim/internal/lockprof"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

func smallSpec() workload.Spec {
	return workload.XalanSpec().Scale(0.05) // 600 units
}

func TestSmokeRun(t *testing.T) {
	res, err := Run(smallSpec(), Config{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("non-positive total time")
	}
	if res.MutatorTime <= 0 || res.MutatorTime+res.GCTime != res.TotalTime {
		t.Errorf("time split mutator=%v gc=%v total=%v", res.MutatorTime, res.GCTime, res.TotalTime)
	}
	if res.ObjectsAllocated == 0 {
		t.Error("no objects allocated")
	}
	if res.Lifespans.Total() != res.ObjectsAllocated {
		t.Errorf("lifespan samples %d != objects %d — some object never died",
			res.Lifespans.Total(), res.ObjectsAllocated)
	}
	if res.LockAcquisitions == 0 {
		t.Error("no lock acquisitions recorded")
	}
	var units int64
	for _, u := range res.PerThreadUnits {
		units += u
	}
	if units != int64(smallSpec().TotalUnits) {
		t.Errorf("executed %d units, want %d", units, smallSpec().TotalUnits)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(smallSpec(), Config{Threads: 6, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || a.GCTime != b.GCTime ||
		a.LockAcquisitions != b.LockAcquisitions ||
		a.LockContentions != b.LockContentions ||
		a.ObjectsAllocated != b.ObjectsAllocated ||
		a.Lifespans.Sum() != b.Lifespans.Sum() {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, err := Run(smallSpec(), Config{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallSpec(), Config{Threads: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime == b.TotalTime && a.Lifespans.Sum() == b.Lifespans.Sum() {
		t.Error("different seeds produced identical runs — RNG not wired through")
	}
}

func TestCoresDefaultToThreads(t *testing.T) {
	res, err := Run(smallSpec(), Config{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 8 {
		t.Errorf("cores = %d, want 8 (paper methodology: cores = threads)", res.Cores)
	}
	// Beyond machine capacity the core count saturates.
	res, err = Run(workload.JythonSpec().Scale(0.02), Config{Threads: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 48 {
		t.Errorf("cores = %d, want 48 (machine limit)", res.Cores)
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.03)
		for _, n := range []int{1, 2, 8} {
			res, err := Run(spec, Config{Threads: n, Seed: 5})
			if err != nil {
				t.Fatalf("%s@%d: %v", spec.Name, n, err)
			}
			if res.Lifespans.Total() != res.ObjectsAllocated {
				t.Errorf("%s@%d: %d lifespans for %d objects",
					spec.Name, n, res.Lifespans.Total(), res.ObjectsAllocated)
			}
			if res.MutatorTime+res.GCTime != res.TotalTime {
				t.Errorf("%s@%d: time split broken", spec.Name, n)
			}
		}
	}
}

func TestWorkDistributionShapes(t *testing.T) {
	// Queue workloads spread work near-uniformly; capped workloads
	// concentrate it (§III of the paper).
	xalan, err := Run(workload.XalanSpec().Scale(0.1), Config{Threads: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var min, max int64 = 1 << 62, 0
	for _, u := range xalan.PerThreadUnits {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if min == 0 || float64(max)/float64(min) > 2.5 {
		t.Errorf("xalan distribution skewed: min=%d max=%d", min, max)
	}

	jython, err := Run(workload.JythonSpec().Scale(0.1), Config{Threads: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, u := range jython.PerThreadUnits {
		if u > 0 {
			busy++
		}
	}
	if busy > 3 {
		t.Errorf("jython used %d threads, cap is 3", busy)
	}
}

func TestGCOccursAndAccounts(t *testing.T) {
	res, err := Run(workload.XalanSpec().Scale(0.2), Config{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCStats.MinorCount == 0 {
		t.Fatal("no minor collections in an allocation-heavy run")
	}
	if res.GCTime <= 0 {
		t.Error("GC occurred but GCTime is zero")
	}
	if res.SafepointTime <= 0 || res.SafepointTime > res.GCTime {
		t.Errorf("safepoint time %v outside (0, GCTime=%v]", res.SafepointTime, res.GCTime)
	}
	var pauseSum sim.Time
	for _, p := range res.GCPauses {
		pauseSum += p.Duration
	}
	if pauseSum+res.SafepointTime != res.GCTime {
		t.Errorf("pauses(%v) + safepoints(%v) != GCTime(%v)", pauseSum, res.SafepointTime, res.GCTime)
	}
}

func TestTraceEmission(t *testing.T) {
	var sink trace.MemorySink
	res, err := Run(smallSpec(), Config{Threads: 4, Seed: 1, TraceSink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	var allocs, deaths, starts, ends int64
	for _, ev := range sink.Events {
		switch ev.Kind {
		case trace.Alloc:
			allocs++
		case trace.Death:
			deaths++
		case trace.ThreadStart:
			starts++
		case trace.ThreadEnd:
			ends++
		}
	}
	if allocs != res.ObjectsAllocated {
		t.Errorf("trace allocs %d != objects %d", allocs, res.ObjectsAllocated)
	}
	if deaths != allocs {
		t.Errorf("trace deaths %d != allocs %d", deaths, allocs)
	}
	if starts != 4 || ends != 4 {
		t.Errorf("thread events %d/%d, want 4/4", starts, ends)
	}
	// Times must be nondecreasing (the writer depends on it).
	for i := 1; i < len(sink.Events); i++ {
		if sink.Events[i].Time < sink.Events[i-1].Time {
			t.Fatal("trace events out of order")
		}
	}
}

func TestTraceLifespansMatchHistogram(t *testing.T) {
	var sink trace.MemorySink
	res, err := Run(smallSpec(), Config{Threads: 4, Seed: 8, TraceSink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute lifespans from the trace; totals must agree exactly with
	// the VM's histogram.
	births := map[uint32]int64{}
	var sum int64
	var count int64
	for _, ev := range sink.Events {
		switch ev.Kind {
		case trace.Alloc:
			births[ev.Object] = ev.Clock
		case trace.Death:
			sum += ev.Clock - births[ev.Object]
			count++
		}
	}
	if count != res.Lifespans.Total() || sum != res.Lifespans.Sum() {
		t.Errorf("trace lifespans (n=%d sum=%d) != histogram (n=%d sum=%d)",
			count, sum, res.Lifespans.Total(), res.Lifespans.Sum())
	}
}

func TestLockProfilerIntegration(t *testing.T) {
	prof := lockprof.New()
	res, err := Run(smallSpec(), Config{Threads: 8, Seed: 1, LockProfiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	sum := prof.Summary()
	if sum.Acquisitions != res.LockAcquisitions {
		t.Errorf("profiler acquisitions %d != result %d", sum.Acquisitions, res.LockAcquisitions)
	}
	if sum.Contentions != res.LockContentions {
		t.Errorf("profiler contentions %d != result %d", sum.Contentions, res.LockContentions)
	}
	per := prof.PerLock()
	if len(per) == 0 {
		t.Fatal("no per-lock stats")
	}
	foundQueue := false
	for _, s := range per {
		if strings.Contains(s.Name, "workQueue") {
			foundQueue = true
		}
	}
	if !foundQueue {
		t.Error("work queue lock missing from profile")
	}
}

func TestBiasedSchedulingRuns(t *testing.T) {
	cfg := Config{Threads: 8, Seed: 1}
	cfg.Sched.Bias.Groups = 2
	cfg.Sched.Bias.PhaseLength = 500 * sim.Microsecond
	res, err := Run(smallSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.Lifespans.Total() != res.ObjectsAllocated {
		t.Error("biased run inconsistent")
	}
	// Gating idles cores, so utilization must drop versus baseline.
	base, err := Run(smallSpec(), Config{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization >= base.Utilization {
		t.Errorf("bias utilization %v not below baseline %v", res.Utilization, base.Utilization)
	}
}

func TestCompartmentsRun(t *testing.T) {
	res, err := Run(workload.XalanSpec().Scale(0.2), Config{Threads: 8, Seed: 1, Compartments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCStats.MinorCount == 0 {
		t.Fatal("no collections with compartments")
	}
	// Compartment-local pauses each cover a quarter of eden; with the same
	// total allocation there must be more, smaller collections.
	base, err := Run(workload.XalanSpec().Scale(0.2), Config{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCStats.MinorCount <= base.GCStats.MinorCount {
		t.Errorf("compartment minors %d not more frequent than baseline %d",
			res.GCStats.MinorCount, base.GCStats.MinorCount)
	}
}

func TestMaxVirtualTimeGuard(t *testing.T) {
	_, err := Run(workload.XalanSpec(), Config{Threads: 4, Seed: 1, MaxVirtualTime: sim.Millisecond})
	if err == nil {
		t.Fatal("expected budget-exceeded error")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	if _, err := Run(workload.Spec{}, Config{}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestGCShare(t *testing.T) {
	res := &Result{TotalTime: 100, GCTime: 25}
	if res.GCShare() != 0.25 {
		t.Errorf("GCShare = %v", res.GCShare())
	}
	if (&Result{}).GCShare() != 0 {
		t.Error("empty GCShare != 0")
	}
}

// Property: for arbitrary small thread counts and seeds, the fundamental
// conservation laws hold — every unit executes, every object dies exactly
// once, the time split is exact, and allocated bytes equal the registry
// clock fed to lifespans.
func TestConservationProperty(t *testing.T) {
	spec := workload.LusearchSpec().Scale(0.01) // 120 units
	f := func(seed uint64, threadsRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		res, err := Run(spec, Config{Threads: threads, Seed: seed})
		if err != nil {
			return false
		}
		var units int64
		for _, u := range res.PerThreadUnits {
			units += u
		}
		if units != int64(spec.TotalUnits) {
			return false
		}
		if res.Lifespans.Total() != res.ObjectsAllocated {
			return false
		}
		if res.MutatorTime+res.GCTime != res.TotalTime {
			return false
		}
		if res.Utilization < 0 || res.Utilization > 1+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: GC pauses lie inside the run window and never overlap, where
// a full collection followed by the retried minor at the same instant
// forms one compound stop-the-world window. Exercised at 48 threads so
// full collections actually occur.
func TestPauseIntervalProperty(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.3)
	sawFull := false
	f := func(seed uint64) bool {
		res, err := Run(spec, Config{Threads: 48, Seed: seed})
		if err != nil {
			return false
		}
		if int64(len(res.GCPauses)) != res.GCStats.MinorCount+res.GCStats.FullCount {
			return false
		}
		if res.GCStats.FullCount > 0 {
			sawFull = true
		}
		var windowStart, windowEnd sim.Time = -1, 0
		for _, p := range res.GCPauses {
			if p.Duration <= 0 {
				return false
			}
			if p.Start == windowStart {
				// Compound window: full + retried minor share a start.
				windowEnd += p.Duration
			} else {
				if p.Start < windowEnd { // overlapping distinct windows
					return false
				}
				windowStart = p.Start
				windowEnd = p.Start + p.Duration
			}
			if windowEnd > res.TotalTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
	if !sawFull {
		t.Log("note: no full collection occurred across sampled seeds")
	}
}

// Property: lifespan mean is finite and positive, and mean lifespan grows
// (or at least does not collapse) when thread count rises for a
// queue-distributed workload — the paper's core §III-B mechanism.
func TestLifespanStretchProperty(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.1)
	mean := func(threads int) float64 {
		res, err := Run(spec, Config{Threads: threads, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return res.Lifespans.Mean()
	}
	m2, m16 := mean(2), mean(16)
	if math.IsNaN(m2) || m2 <= 0 {
		t.Fatalf("degenerate lifespan mean %v", m2)
	}
	if m16 <= m2 {
		t.Errorf("mean lifespan at 16 threads (%v) not above 2 threads (%v)", m16, m2)
	}
}

func TestHeapLogSampled(t *testing.T) {
	res, err := Run(workload.XalanSpec().Scale(0.1), Config{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HeapLog) == 0 {
		t.Fatal("no heap samples despite collections")
	}
	if int64(len(res.HeapLog)) > res.GCStats.MinorCount+res.GCStats.FullCount {
		t.Error("more heap samples than stop-the-world windows")
	}
	var prev sim.Time = -1
	for _, s := range res.HeapLog {
		if s.Time < prev {
			t.Fatal("heap log out of order")
		}
		prev = s.Time
		if s.OldUsed < 0 || s.LiveBytes < 0 || s.Fragmentation < 0 {
			t.Fatalf("negative sample %+v", s)
		}
	}
	// Old generation occupancy grows over the run as promotion accrues.
	if res.HeapLog[len(res.HeapLog)-1].OldUsed < res.HeapLog[0].OldUsed {
		t.Error("old generation shrank without full collection")
	}
}

// TestRegistryNeverRegrows: the object registry is sized for every unit
// a run can take, so its record slice keeps its construction capacity —
// for every DaCapo spec over one and three iterations, and for an open
// run whose request budget exceeds the spec's unit count.
func TestRegistryNeverRegrows(t *testing.T) {
	type capacity struct{ end, start int }
	var seen []capacity
	registryObserver = func(end, start int) { seen = append(seen, capacity{end, start}) }
	defer func() { registryObserver = nil }()

	check := func(name string, spec workload.Spec, cfg Config) {
		t.Helper()
		seen = seen[:0]
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(seen) != 1 {
			t.Fatalf("%s: registry observed %d times, want 1", name, len(seen))
		}
		if c := seen[0]; c.end != c.start {
			t.Errorf("%s: registry regrew from %d to %d objects (%d allocated)",
				name, c.start, c.end, res.ObjectsAllocated)
		}
	}
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.1)
		for _, iters := range []int{1, 3} {
			check(fmt.Sprintf("%s x%d", spec.Name, iters), spec, Config{Threads: 4, Seed: 2, Iterations: iters})
		}
	}
	server := workload.ServerSpec().Scale(0.1)
	check("server open", server, Config{Threads: 8, Seed: 2, Traffic: traffic.Config{
		Process: traffic.ProcessPoisson, RatePerSec: 200000, Requests: 2 * server.TotalUnits,
	}})
}
