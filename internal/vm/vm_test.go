package vm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"javasim/internal/gc"
	"javasim/internal/lockprof"
	"javasim/internal/metrics"
	"javasim/internal/objmodel"
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
	if pauseSum := res.GCStats.TotalTime(); pauseSum+res.SafepointTime != res.GCTime {
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

// TestTraceObjectIDsAreDense: registry slots are recycled, but trace
// events name objects by allocation number. Alloc events carry IDs
// 0..N-1 in order, every Death names an allocated, not-yet-dead ID, and
// the written trace analyzes with nothing leaked — with pretenuring
// (objects born old) and across iterations (objects retired at the
// boundary).
func TestTraceObjectIDsAreDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pretenuring", Config{Threads: 4, Seed: 3, Pretenuring: true}},
		{"iterations", Config{Threads: 4, Seed: 3, Iterations: 3}},
	} {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		tc.cfg.TraceSink = w
		res, err := Run(smallSpec(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if tc.cfg.Pretenuring && res.HeapStats.PretenuredBytes == 0 {
			t.Fatalf("%s: no object was pretenured", tc.name)
		}
		r := trace.NewReader(bytes.NewReader(buf.Bytes()))
		var next uint32
		dead := map[uint32]bool{}
		for {
			ev, err := r.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch ev.Kind {
			case trace.Alloc:
				if ev.Object != next {
					t.Fatalf("%s: alloc event names object %d, want %d", tc.name, ev.Object, next)
				}
				next++
			case trace.Death:
				if ev.Object >= next || dead[ev.Object] {
					t.Fatalf("%s: death of object %d (allocated %d, already dead %v)",
						tc.name, ev.Object, next, dead[ev.Object])
				}
				dead[ev.Object] = true
			}
		}
		if int64(next) != res.ObjectsAllocated {
			t.Errorf("%s: %d alloc events for %d objects", tc.name, next, res.ObjectsAllocated)
		}
		a, err := trace.Analyze(context.Background(), trace.NewReader(bytes.NewReader(buf.Bytes())), 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Leaked != 0 || a.Deaths != res.ObjectsAllocated {
			t.Errorf("%s: trace analysis leaked %d, %d deaths of %d objects",
				tc.name, a.Leaked, a.Deaths, res.ObjectsAllocated)
		}
	}
}

// TestRetireLiveTraceOrder: with a TraceSink attached, end-of-run
// retirement emits its Death events in allocation order, even where
// recycled slots hold later objects below earlier ones.
func TestRetireLiveTraceOrder(t *testing.T) {
	sink := &trace.MemorySink{}
	v := &vm{reg: objmodel.NewRegistry(), sim: sim.New(), lifespans: metrics.NewHistogram("retire")}
	v.cfg.TraceSink = sink
	m := &mutator{}
	alloc := func() objmodel.ID {
		id := v.reg.Alloc(64, 0)
		v.traceAlloc(id, m, 64)
		return id
	}
	var ids []objmodel.ID
	for range 5 {
		ids = append(ids, alloc())
	}
	for _, id := range ids[:3] {
		v.kill(id)
		v.reg.Free(id)
	}
	for range 3 {
		alloc() // objects 5, 6 and 7 reuse slots 2, 1 and 0
	}
	sink.Events = nil
	v.retireLive()
	var got []uint32
	for _, ev := range sink.Events {
		if ev.Kind == trace.Death {
			got = append(got, ev.Object)
		}
	}
	if want := []uint32{3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Errorf("retirement deaths %v, want allocation order %v", got, want)
	}
	if v.reg.LiveCount() != 0 || v.lifespans.Total() != 8 {
		t.Errorf("after retirement: %d live, %d lifespans recorded, want 0 and 8", v.reg.LiveCount(), v.lifespans.Total())
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
	_, err := runContext(context.Background(), workload.XalanSpec(), Config{Threads: 4, Seed: 1}, true, sim.Millisecond)
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
		res, pauses, err := tracedPauses(spec, Config{Threads: 48, Seed: seed})
		if err != nil {
			return false
		}
		if int64(len(pauses)) != res.GCStats.MinorCount+res.GCStats.FullCount {
			return false
		}
		if res.GCStats.FullCount > 0 {
			sawFull = true
		}
		var windowStart, windowEnd sim.Time = -1, 0
		for _, p := range pauses {
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

// pauseLog keeps the GCStart/GCEnd pairs a traced run emits, one
// gc.Pause (kind, compartment, start, duration) per pair: the per-pause
// record a Result carries only as GCStats totals.
type pauseLog []gc.Pause

func (l *pauseLog) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.GCStart:
		*l = append(*l, gc.Pause{Kind: gc.Kind(ev.Arg), Start: ev.Time, Compartment: int(ev.Thread)})
	case trace.GCEnd:
		(*l)[len(*l)-1].Duration = sim.Time(ev.Arg)
	}
}

// tracedPauses runs spec under cfg with a pauseLog attached.
func tracedPauses(spec workload.Spec, cfg Config) (*Result, []gc.Pause, error) {
	var log pauseLog
	cfg.TraceSink = &log
	res, err := Run(spec, cfg)
	return res, log, err
}

// TestPauseSummaryMatchesTrace pins the result's pause summary against
// the per-pause truth in the trace: under every GC policy, the GCEnd
// events give the same count, sum and maximum as GCStats' Collections,
// TotalTime and MaxPause. cmsSpec's old-generation pressure makes the
// concurrent policy pause for initial marks and remarks too.
func TestPauseSummaryMatchesTrace(t *testing.T) {
	for _, policy := range gc.Policies.Names() {
		res, pauses, err := tracedPauses(cmsSpec(), Config{Threads: 32, Seed: 42, HeapFactor: 2, GCPolicy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var sum, maxDur sim.Time
		for _, p := range pauses {
			sum += p.Duration
			maxDur = max(maxDur, p.Duration)
		}
		st := res.GCStats
		if int64(len(pauses)) != st.Collections() || sum != st.TotalTime() || maxDur != st.MaxPause {
			t.Errorf("%s: trace has %d pauses, sum %v, max %v; GCStats %d, %v, %v",
				policy, len(pauses), sum, maxDur, st.Collections(), st.TotalTime(), st.MaxPause)
		}
		if len(pauses) == 0 || policy == gc.PolicyConcurrent && st.ConcPauses == 0 {
			t.Errorf("%s: %d pauses, %d concurrent: the summary is untested", policy, len(pauses), st.ConcPauses)
		}
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

// TestRegistryHighWaterIsPeakTracked: the collector frees each dead
// object's slot once it drops it from a young or old list, so the
// registry's high-water mark equals the collector's peak young plus old
// population, not the run's allocation count. At run end every object
// has died, and every slot is either free or held by exactly one list.
// The open server runs show memory does not follow the request budget.
func TestRegistryHighWaterIsPeakTracked(t *testing.T) {
	check := func(name string, spec workload.Spec, cfg Config) (*Result, int) {
		t.Helper()
		var reg *objmodel.Registry
		var col *gc.Collector
		registryObserver = func(r *objmodel.Registry, c *gc.Collector) { reg, col = r, c }
		defer func() { registryObserver = nil }()
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reg == nil {
			t.Fatalf("%s: registry not observed", name)
		}
		if got, want := reg.Slots(), col.PeakTracked(); got != want {
			t.Errorf("%s: registry high-water %d slots, collector peak %d objects", name, got, want)
		}
		if reg.Count() != res.ObjectsAllocated || int64(reg.Slots()) >= reg.Count() {
			t.Errorf("%s: %d slots for %d allocations (result says %d)",
				name, reg.Slots(), reg.Count(), res.ObjectsAllocated)
		}
		if reg.LiveCount() != 0 || reg.DeadCount() != reg.Count() {
			t.Errorf("%s: at run end %d live, %d of %d dead", name, reg.LiveCount(), reg.DeadCount(), reg.Count())
		}
		if err := col.AuditSlots(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return res, reg.Slots()
	}
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.1)
		for _, iters := range []int{1, 3} {
			check(fmt.Sprintf("%s x%d", spec.Name, iters), spec, Config{Threads: 4, Seed: 2, Iterations: iters})
		}
	}
	// Full collections with pretenured objects, and a concurrent sweep:
	// the other two places the collector drops dead objects.
	res, _ := check("xalan full+pretenuring", workload.XalanSpec().Scale(0.2),
		Config{Threads: 48, Seed: 42, HeapFactor: 2, Pretenuring: true})
	if res.GCStats.FullCount == 0 || res.HeapStats.PretenuredAllocs == 0 {
		t.Errorf("xalan full+pretenuring: %d full collections, %d pretenured objects; want both > 0",
			res.GCStats.FullCount, res.HeapStats.PretenuredAllocs)
	}
	res, _ = check("server concurrent", cmsSpec().Scale(0.4),
		Config{Threads: 16, Seed: 42, HeapFactor: 2, GCPolicy: gc.PolicyConcurrent})
	if res.ConcCycles == 0 {
		t.Error("server concurrent: no concurrent cycle swept the old generation")
	}
	check("xalan compartments", workload.XalanSpec().Scale(0.1), Config{Threads: 4, Seed: 2, Compartments: 2})

	server := workload.ServerSpec().Scale(0.1)
	open := func(budget int) Config {
		return Config{Threads: 8, Seed: 2, Traffic: traffic.Config{
			Process: traffic.ProcessPoisson, RatePerSec: 200000, Requests: budget * server.TotalUnits,
		}}
	}
	res1, slots1 := check("server open 1x", server, open(1))
	res2, slots2 := check("server open 2x", server, open(2))
	n1, n2 := res1.ObjectsAllocated, res2.ObjectsAllocated
	t.Logf("open server: 1x %d slots / %d objects, 2x %d slots / %d objects", slots1, n1, slots2, n2)
	if n2 < n1*3/2 {
		t.Fatalf("2x budget allocated %d objects vs %d at 1x; the run did not grow", n2, n1)
	}
	// The extra requests double the allocations, but the registry grows
	// only by what the heap still holds of them (promoted objects no full
	// collection has reclaimed yet), a small fraction.
	if grow := int64(slots2 - slots1); grow*4 > n2-n1 {
		t.Errorf("registry high-water grew with the request budget: %d slots at 1x, %d at 2x, for %d more objects",
			slots1, slots2, n2-n1)
	}
}
