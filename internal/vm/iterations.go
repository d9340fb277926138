package vm

import (
	"fmt"

	"javasim/internal/sim"
	"javasim/internal/workload"
)

// Multi-iteration runs (Config.Iterations > 1) follow DaCapo's harness
// methodology: the same workload executes repeatedly inside one JVM
// process. Heap state persists across iterations — garbage from iteration
// N is collected during iteration N+1, exactly as in the real harness —
// while each iteration's application-level state (the Immortal objects)
// is released at the boundary, which is where DaCapo benchmarks reset.
// Per-iteration timings expose warmup versus steady state.

// IterationStats is one iteration's share of a multi-iteration run.
type IterationStats struct {
	// Index is the zero-based iteration number.
	Index int
	// Duration is the iteration's virtual wall-clock time.
	Duration sim.Time
	// GCTime is the stop-the-world time incurred during the iteration.
	GCTime sim.Time
	// Collections counts GC pauses during the iteration.
	Collections int
}

// recordIteration closes the books on the current iteration.
func (v *vm) recordIteration() {
	now := v.sim.Now()
	v.iterStats = append(v.iterStats, IterationStats{
		Index:       v.iteration,
		Duration:    now - v.iterStart,
		GCTime:      v.gcTime - v.iterGCTime,
		Collections: int(v.gc.Stats().Collections() - v.iterPauses),
	})
	v.iterStart = now
	v.iterGCTime = v.gcTime
	v.iterPauses = v.gc.Stats().Collections()
}

// startNextIteration releases the finished iteration's remaining objects,
// rebuilds the work distribution, and restarts every mutator thread.
func (v *vm) startNextIteration() {
	v.recordIteration()

	// Release the iteration's application state. Death-ring entries all
	// refer to objects dead after this, so the rings reset with them.
	v.retireLive()
	for _, m := range v.mutators {
		for i := range m.allocRing {
			m.allocRing[i] = m.allocRing[i][:0]
		}
		for i := range m.unitRing {
			m.unitRing[i] = m.unitRing[i][:0]
		}
	}

	// Accumulate per-thread work before discarding the drained run.
	for i, u := range v.run.UnitsTaken() {
		v.unitsAccum[i] += u
	}

	v.iteration++
	run, err := workload.NewRun(v.spec, v.cfg.Threads, v.cfg.Seed+uint64(v.iteration)*0x9E3779B9)
	if err != nil {
		// The spec already validated for iteration zero; this cannot fail.
		v.fail(fmt.Errorf("vm: iteration %d setup: %w", v.iteration, err))
		return
	}
	run.ReuseUnitBuffers()
	if v.snap != nil && v.iteration < len(v.snap.tapes) {
		run.AttachTape(v.snap.tapes[v.iteration])
	}
	v.run = run
	v.currentPhase = 0
	v.barArrived = 0

	for _, m := range v.mutators {
		v.setMutatorState(m, stRunning)
		v.aliveCount++
		v.sched.Unblock(m.th)
		v.sched.Submit(m.th, 0, m.fetchFn)
	}
}
