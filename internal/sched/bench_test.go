package sched

import (
	"testing"

	"javasim/internal/machine"
	"javasim/internal/sim"
)

// BenchmarkDispatchCycle measures the submit→dispatch→complete round trip
// for short segments across a contended 8-core machine. The resubmit
// closures are pre-bound once per thread — mirroring how the VM drives
// the scheduler — so the cycle itself must report zero allocs/op.
func BenchmarkDispatchCycle(b *testing.B) {
	s := sim.New()
	sc := New(s, multiCoreMachine(8), Config{})
	const nThreads = 16
	threads := make([]*Thread, nThreads)
	for i := range threads {
		threads[i] = sc.NewThread("w", 0)
	}
	remaining := b.N
	var spawn func(i int)
	conts := make([]func(), nThreads)
	for i := range conts {
		i := i
		conts[i] = func() { spawn(i) }
	}
	spawn = func(i int) {
		if remaining == 0 {
			return
		}
		remaining--
		sc.Submit(threads[i], 10*sim.Microsecond, conts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range threads {
		spawn(i)
	}
	s.Run()
}

// BenchmarkSchedContinuation measures the continuation fast path: a
// single thread resubmitting from its own done callback with a pre-bound
// continuation, the shape of the VM's op-to-op inner loop. With pooled
// slice events and no closure churn this must report zero allocs/op.
func BenchmarkSchedContinuation(b *testing.B) {
	s := sim.New()
	sc := New(s, multiCoreMachine(1), Config{})
	th := sc.NewThread("w", 0)
	remaining := b.N
	var cont func()
	cont = func() {
		if remaining == 0 {
			return
		}
		remaining--
		sc.Submit(th, 2*sim.Microsecond, cont)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cont()
	s.Run()
}

// BenchmarkNUMAPenaltyPath measures dispatch with the remote-placement
// arithmetic active.
func BenchmarkNUMAPenaltyPath(b *testing.B) {
	s := sim.New()
	m := newMachine(machine.Opteron6168())
	sc := New(s, m, Config{})
	th := sc.NewThread("w", 0)
	th.MemoryIntensity = 0.8
	remaining := b.N
	var loop func()
	loop = func() {
		if remaining == 0 {
			return
		}
		remaining--
		sc.Submit(th, 5*sim.Microsecond, loop)
	}
	b.ResetTimer()
	loop()
	s.Run()
}
