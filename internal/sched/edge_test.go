package sched

import (
	"testing"

	"javasim/internal/sim"
)

// TestNoStealIsolation: stealing is always on, so a thread queued behind
// a busy core never stays isolated there while another core idles.
func TestNoStealIsolation(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{})
	// Occupy both cores, then queue a third thread behind one of them.
	a := sc.NewThread("a", 0)
	b := sc.NewThread("b", 0)
	c := sc.NewThread("c", 0)
	var cDone sim.Time
	sc.Submit(a, 10*sim.Millisecond, func() {})
	sc.Submit(b, 1*sim.Millisecond, func() {})
	sc.Submit(c, 1*sim.Millisecond, func() { cDone = s.Now() })
	s.Run()
	// Wherever c queued, b's core steals it when b finishes at 1ms.
	if cDone != 2*sim.Millisecond {
		t.Errorf("c done at %v, want 2ms", cDone)
	}
}

// TestGateOverride: a gated thread becomes schedulable while the override
// predicate holds, and is gated again when it clears.
func TestGateOverride(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(1), Config{
		Bias: PhaseBias{Groups: 2, PhaseLength: 10 * sim.Millisecond},
	})
	override := false
	sc.SetGateOverride(func() bool { return override })
	gated := sc.NewThread("gated", 0)
	gated.Group = 1 // inactive at t=0
	var done sim.Time
	sc.Submit(gated, 100*sim.Microsecond, func() { done = s.Now() })
	// Without the override the thread would wait until the 10ms phase
	// boundary. Flip the override at 1ms and kick.
	s.At(sim.Millisecond, func() {
		override = true
		sc.Kick()
	})
	s.RunUntil(5 * sim.Millisecond)
	if done != sim.Millisecond+100*sim.Microsecond {
		t.Errorf("gated thread done at %v, want 1.1ms (override)", done)
	}
}

// TestKickIdempotent: kicking with nothing to do is harmless.
func TestKickIdempotent(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(2), Config{})
	sc.Kick()
	sc.Kick()
	th := sc.NewThread("w", 0)
	ran := false
	sc.Submit(th, 10, func() { ran = true })
	sc.Kick()
	s.Run()
	if !ran {
		t.Error("thread lost after kicks")
	}
}

// TestBlockedTimeAccounting: blocked and ready waits accumulate into
// separate buckets.
func TestBlockedTimeAccounting(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(1), Config{})
	th := sc.NewThread("w", 0)
	sc.Submit(th, 100, func() { sc.Block(th) })
	s.At(10000, func() {
		sc.Unblock(th)
		sc.Submit(th, 100, func() {})
	})
	s.Run()
	if th.BlockedTime() != 10000-100 {
		t.Errorf("blocked time %v, want 9900", th.BlockedTime())
	}
	if th.CPUTime() != 200 {
		t.Errorf("cpu %v, want 200", th.CPUTime())
	}
}

// TestPhaseWakeRearm: a gated thread on an otherwise idle system is
// re-dispatched at each phase boundary without leaking wakeup events.
func TestPhaseWakeRearm(t *testing.T) {
	s := sim.New()
	sc := New(s, multiCoreMachine(1), Config{
		Bias: PhaseBias{Groups: 3, PhaseLength: sim.Millisecond},
	})
	th := sc.NewThread("w", 0)
	th.Group = 2 // active during [2ms, 3ms)
	var done sim.Time
	sc.Submit(th, 50*sim.Microsecond, func() { done = s.Now() })
	s.Run()
	if done != 2*sim.Millisecond+50*sim.Microsecond {
		t.Errorf("done at %v, want 2.05ms (third phase)", done)
	}
}
