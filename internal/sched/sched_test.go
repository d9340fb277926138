package sched

import (
	"testing"
	"testing/quick"

	"javasim/internal/machine"
	"javasim/internal/sim"
)

// newMachine builds a machine from a configuration the test knows is
// valid.
func newMachine(cfg machine.Config) *machine.Machine {
	m, err := machine.New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func singleCoreMachine() *machine.Machine {
	return newMachine(machine.Config{
		Sockets: 1, CoresPerSocket: 1, MemoryPerNode: 1 << 30,
		LocalAccess: 65, RemoteAccessPerHop: 45,
	})
}

func multiCoreMachine(cores int) *machine.Machine {
	return newMachine(machine.Config{
		Sockets: 1, CoresPerSocket: cores, MemoryPerNode: 1 << 30,
		LocalAccess: 65, RemoteAccessPerHop: 45,
	})
}

func TestSingleSegmentCompletes(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("worker", 0)
	var doneAt sim.Time = -1
	sc.Submit(th, 100*sim.Microsecond, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 100*sim.Microsecond {
		t.Errorf("done at %v, want 100µs", doneAt)
	}
	if th.State() != Idle {
		t.Errorf("state = %v, want idle", th.State())
	}
	if th.CPUTime() != 100*sim.Microsecond {
		t.Errorf("cpu = %v, want 100µs", th.CPUTime())
	}
}

func TestZeroDurationSegment(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("worker", 0)
	called := false
	sc.Submit(th, 0, func() { called = true })
	s.Run()
	if !called {
		t.Error("zero-duration segment never completed")
	}
}

func TestContinuationKeepsCore(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("worker", 0)
	segments := 0
	var step func()
	step = func() {
		segments++
		if segments < 5 {
			sc.Submit(th, 10*sim.Microsecond, step)
		}
	}
	sc.Submit(th, 10*sim.Microsecond, step)
	s.Run()
	if segments != 5 {
		t.Fatalf("segments = %d, want 5", segments)
	}
	if th.Dispatches() != 1 {
		t.Errorf("dispatches = %d, want 1 (continuations keep the core)", th.Dispatches())
	}
	if s.Now() != 50*sim.Microsecond {
		t.Errorf("finished at %v, want 50µs", s.Now())
	}
}

func TestTwoThreadsShareOneCore(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	a := sc.NewThread("a", 0)
	b := sc.NewThread("b", 0)
	var aDone, bDone sim.Time
	sc.Submit(a, 3*sim.Millisecond, func() { aDone = s.Now() })
	sc.Submit(b, 3*sim.Millisecond, func() { bDone = s.Now() })
	s.Run()
	// Total work is 6ms on one core; the later finisher ends at 6ms.
	last := aDone
	if bDone > last {
		last = bDone
	}
	if last != 6*sim.Millisecond {
		t.Errorf("last completion %v, want 6ms", last)
	}
	// Fair sharing: both should finish within one quantum of each other.
	diff := aDone - bDone
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Millisecond {
		t.Errorf("unfair completion spread %v (a=%v b=%v)", diff, aDone, bDone)
	}
	if a.ReadyWait() == 0 && b.ReadyWait() == 0 {
		t.Error("no ready wait recorded under 2x oversubscription")
	}
	if a.Preemptions()+b.Preemptions() == 0 {
		t.Error("no preemptions under contention")
	}
}

func TestWeightedFairness(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	heavy := sc.NewThread("heavy", DefaultWeight)
	light := sc.NewThread("light", DefaultWeight/4)
	// Both want effectively unlimited work; run for a fixed window and
	// compare shares.
	keepRunning := func(th *Thread) func() {
		var f func()
		f = func() { sc.Submit(th, 100*sim.Microsecond, f) }
		return f
	}
	sc.Submit(heavy, 100*sim.Microsecond, keepRunning(heavy))
	sc.Submit(light, 100*sim.Microsecond, keepRunning(light))
	s.RunUntil(50 * sim.Millisecond)
	ratio := float64(heavy.CPUTime()) / float64(light.CPUTime())
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("cpu ratio heavy/light = %.2f, want ~4", ratio)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(4), Config{})
	var finished int
	for i := 0; i < 4; i++ {
		th := sc.NewThread("w", 0)
		sc.Submit(th, sim.Millisecond, func() { finished++ })
	}
	s.Run()
	if finished != 4 {
		t.Fatalf("finished = %d, want 4", finished)
	}
	if s.Now() != sim.Millisecond {
		t.Errorf("4 threads on 4 cores took %v, want 1ms", s.Now())
	}
}

func TestWorkStealing(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{})
	// Three threads submitted at t=0: two dispatch, one queues. When a
	// core frees, the queued thread must run there even if it was queued
	// on the other core.
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		th := sc.NewThread(n, 0)
		sc.Submit(th, sim.Millisecond, func() { order = append(order, n) })
	}
	s.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d, want 3", len(order))
	}
	if s.Now() != 2*sim.Millisecond {
		t.Errorf("makespan %v, want 2ms", s.Now())
	}
}

func TestBlockUnblock(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("w", 0)
	var resumed sim.Time
	sc.Submit(th, 10*sim.Microsecond, func() {
		sc.Block(th) // park at end of segment, inside own callback
	})
	// An external event unblocks and resubmits at t=1ms.
	s.At(sim.Millisecond, func() {
		sc.Unblock(th)
		sc.Submit(th, 10*sim.Microsecond, func() { resumed = s.Now() })
	})
	s.Run()
	if th.BlockedTime() != sim.Millisecond-10*sim.Microsecond {
		t.Errorf("blocked time %v, want 990µs", th.BlockedTime())
	}
	if resumed != sim.Millisecond+10*sim.Microsecond {
		t.Errorf("resumed work finished at %v", resumed)
	}
}

func TestTerminate(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("w", 0)
	sc.Submit(th, 10, func() { sc.Terminate(th) })
	s.Run()
	if th.State() != Terminated {
		t.Errorf("state = %v, want terminated", th.State())
	}
}

func TestSubmitOnTerminatedPanics(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("w", 0)
	sc.Submit(th, 10, func() { sc.Terminate(th) })
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on terminated thread did not panic")
		}
	}()
	sc.Submit(th, 10, func() {})
}

func TestDoubleSubmitPanics(t *testing.T) {
	s := sim.New()
	sc := New(s, singleCoreMachine(), Config{})
	th := sc.NewThread("w", 0)
	sc.Submit(th, 100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("double Submit did not panic")
		}
	}()
	sc.Submit(th, 100, func() {})
}

func TestMigrationAccounting(t *testing.T) {
	s := sim.New()
	m := newMachine(machine.Config{
		Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 1 << 30,
		LocalAccess: 65, RemoteAccessPerHop: 45, MigrationCost: 10 * sim.Microsecond,
	})
	sc := New(s, m, Config{})
	hog := sc.NewThread("hog", 0)
	mover := sc.NewThread("mover", 0)
	// mover runs on core 0 first (establishing home and affinity). After
	// it goes idle, the hog occupies core 0 (first free core), so mover's
	// next segment must land on core 1 — a migration.
	sc.Submit(mover, 10*sim.Microsecond, func() {})
	s.At(20*sim.Microsecond, func() {
		sc.Submit(hog, 10*sim.Millisecond, func() {})
	})
	s.At(50*sim.Microsecond, func() {
		sc.Submit(mover, 10*sim.Microsecond, func() {})
	})
	s.Run()
	if hog.Core() != 0 {
		t.Fatalf("hog ran on core %d, want 0 (test setup)", hog.Core())
	}
	if mover.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", mover.Migrations())
	}
	// The migrated slice pays the migration cost, so CPU time exceeds the
	// 20µs of requested work.
	if mover.CPUTime() <= 20*sim.Microsecond {
		t.Errorf("cpu = %v, want > 20µs (migration cost)", mover.CPUTime())
	}
}

func TestNUMAPenaltySlowsRemotePlacement(t *testing.T) {
	s := sim.New()
	m := newMachine(machine.Config{
		Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 1 << 30,
		LocalAccess: 50, RemoteAccessPerHop: 50, // remote = 2x local
	})
	sc := New(s, m, Config{})
	hog := sc.NewThread("hog", 0)
	th := sc.NewThread("numa", 0)
	th.MemoryIntensity = 1.0
	var finished sim.Time
	// Establish home on core 0 (socket 0), then force the next segment to
	// core 1 (socket 1) by hogging core 0 while th is idle.
	sc.Submit(th, 10*sim.Microsecond, func() {})
	s.At(15*sim.Microsecond, func() {
		sc.Submit(hog, 100*sim.Millisecond, func() {})
	})
	s.At(20*sim.Microsecond, func() {
		sc.Submit(th, 100*sim.Microsecond, func() { finished = s.Now() })
	})
	s.Run()
	if hog.Core() != 0 {
		t.Fatalf("hog ran on core %d, want 0 (test setup)", hog.Core())
	}
	// Fully memory-bound on a 2x-remote node: the 100µs segment takes
	// 200µs of wall time, finishing at 20µs + 200µs.
	if finished != 220*sim.Microsecond {
		t.Errorf("remote segment finished at %v, want 220µs", finished)
	}
}

func TestPhaseBias(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{
		Bias: PhaseBias{Groups: 2, PhaseLength: sim.Millisecond},
	})
	g0 := sc.NewThread("g0", 0)
	g0.Group = 0
	g1 := sc.NewThread("g1", 0)
	g1.Group = 1
	var g0Done, g1Done sim.Time
	sc.Submit(g0, 100*sim.Microsecond, func() { g0Done = s.Now() })
	sc.Submit(g1, 100*sim.Microsecond, func() { g1Done = s.Now() })
	s.Run()
	// Group 0 is active initially; group 1 waits for the phase rotation at
	// 1ms even though a core sits idle.
	if g0Done != 100*sim.Microsecond {
		t.Errorf("g0 done at %v, want 100µs", g0Done)
	}
	if g1Done != sim.Millisecond+100*sim.Microsecond {
		t.Errorf("g1 done at %v, want 1.1ms", g1Done)
	}
}

func TestPhaseBiasExemptsNoGroup(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{
		Bias: PhaseBias{Groups: 2, PhaseLength: sim.Millisecond},
	})
	helper := sc.NewThread("helper", 0) // Group stays NoGroup
	var done sim.Time
	sc.Submit(helper, 50*sim.Microsecond, func() { done = s.Now() })
	s.Run()
	if done != 50*sim.Microsecond {
		t.Errorf("ungrouped thread gated by phase bias: done at %v", done)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{})
	th := sc.NewThread("w", 0)
	sc.Submit(th, sim.Millisecond, func() {})
	s.Run()
	// One of two cores busy for the whole run: utilization 0.5.
	u := sc.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

// Property: no thread is ever lost — for arbitrary segment counts and
// durations across a small thread pool, every submitted segment completes
// and total CPU time equals total requested time (single-socket machine,
// no migration cost, so effective == base).
func TestConservationProperty(t *testing.T) {
	f := func(plan []uint8) bool {
		if len(plan) == 0 {
			return true
		}
		if len(plan) > 24 {
			plan = plan[:24]
		}
		s := sim.New()
		sc := New(s, multiCoreMachine(3), Config{})
		const nThreads = 4
		threads := make([]*Thread, nThreads)
		remaining := make([][]sim.Time, nThreads)
		for i := range threads {
			threads[i] = sc.NewThread("w", 0)
		}
		var total sim.Time
		for i, p := range plan {
			// Up to twice the quantum, so some segments are preempted.
			d := sim.Time(p%100+1) * 20 * sim.Microsecond
			remaining[i%nThreads] = append(remaining[i%nThreads], d)
			total += d
		}
		completed := 0
		var run func(i int)
		run = func(i int) {
			if len(remaining[i]) == 0 {
				return
			}
			d := remaining[i][0]
			remaining[i] = remaining[i][1:]
			sc.Submit(threads[i], d, func() {
				completed++
				run(i)
			})
		}
		expect := 0
		for i := 0; i < nThreads; i++ {
			expect += len(remaining[i])
			run(i)
		}
		s.Run()
		if completed != expect {
			return false
		}
		var cpu sim.Time
		for _, th := range threads {
			cpu += th.CPUTime()
		}
		return cpu == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCMTDispatchRespectsEnabledUnits is the hardware-thread safety
// property: after EnableCores(n) on a CMT machine, every dispatch lands
// on one of the first n units — never a disabled strand, never an index
// past the machine. Checked inside running segment callbacks, where the
// thread is live on its core.
func TestCMTDispatchRespectsEnabledUnits(t *testing.T) {
	f := func(nSeed, thSeed uint8) bool {
		m := newMachine(machine.Config{
			Sockets: 2, CoresPerSocket: 4, ThreadsPerCore: 4, IssueWidth: 2,
			MemoryPerNode: 1 << 30, LocalAccess: 65, RemoteAccessPerHop: 45,
		})
		total := m.NumCores() // 32 hardware threads
		n := 1 + int(nSeed)%total
		if err := m.EnableCores(n); err != nil {
			t.Fatalf("EnableCores(%d): %v", n, err)
		}
		s := sim.New()
		sc := New(s, m, Config{})
		nThreads := 1 + int(thSeed)%40
		ok := true
		for i := 0; i < nThreads; i++ {
			th := sc.NewThread("w", 0)
			segs := 0
			var step func()
			step = func() {
				if c := th.Core(); c < 0 || c >= n {
					ok = false
				}
				if segs++; segs < 5 {
					sc.Submit(th, 30*sim.Microsecond, step)
				}
			}
			sc.Submit(th, 30*sim.Microsecond, step)
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
