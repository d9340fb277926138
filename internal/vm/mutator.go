package vm

import (
	"javasim/internal/locks"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/workload"
)

// Mutator execution model
//
// Every function below runs inside a scheduler callback for the mutator's
// thread (or resumes one via Submit), so "now" is the virtual time at which
// the previous CPU segment ended. Each path must end the callback in one of
// three ways: submit the next segment (continuation), park the thread
// (lock wait, barrier, safepoint), or terminate it. Safepoint polls sit at
// segment boundaries — between ops — which is exactly where a real JVM
// polls, and gives stop-the-world requests a realistic time-to-safepoint.

// pollCost is the CPU charge for checking a work source and finding the
// phase boundary (a failed steal/poll).
const pollCost = 80 * sim.Nanosecond

// barrierHold is the critical-section length for barrier bookkeeping.
const barrierHold = 120 * sim.Nanosecond

// barrierPolls is how many times an arriving thread re-checks the work
// source before parking at the phase barrier.
const barrierPolls = 3

// fetchWork drives a mutator that is between units: it honors pending
// stop-the-world requests, phase barriers, and the work distribution, then
// starts interpreting the next unit.
func (v *vm) fetchWork(m *mutator) {
	if v.stwPending && v.affectedBySTW(m) {
		v.parkForGC(m, m.fetchFn)
		return
	}
	if v.atPhaseBoundary() {
		v.enterBarrier(m)
		return
	}
	if v.queueLock != nil {
		// Shared work queue: dequeue under the queue lock.
		v.acquireThen(m, v.queueLock, v.spec.QueueLockHold, m.takeUnitFn)
		return
	}
	v.takeUnit(m)
}

// atPhaseBoundary reports whether the global unit counter has crossed into
// barrier territory for the current phase. No barrier gates the final
// phase — threads simply drain the remaining work and terminate.
func (v *vm) atPhaseBoundary() bool {
	if v.spec.Phases <= 0 || v.currentPhase >= v.spec.Phases-1 {
		return false
	}
	taken := v.spec.TotalUnits - v.run.Remaining()
	return taken >= (v.currentPhase+1)*v.phaseUnits
}

// takeUnit draws the next unit for m, or terminates the thread when its
// work is exhausted.
func (v *vm) takeUnit(m *mutator) {
	unit, ok := v.run.Take(m.idx)
	if !ok {
		v.finishMutator(m)
		return
	}
	m.unit = unit
	m.opIdx = 0
	v.step(m)
}

// step interprets the current unit from m.opIdx.
func (v *vm) step(m *mutator) {
	if v.stwPending && v.affectedBySTW(m) {
		v.parkForGC(m, m.stepFn)
		return
	}
	if m.opIdx >= len(m.unit.Ops) {
		v.completeUnit(m)
		return
	}
	// Fast path: collapse a run of non-blocking ops into one segment when
	// no other simulation event can intervene (see fuse.go).
	if v.fuseOK {
		if d, ok := v.fuseRun(m); ok {
			v.sched.Submit(m.th, d, m.stepFn)
			return
		}
	}
	op := &m.unit.Ops[m.opIdx]
	switch op.Kind {
	case workload.OpCompute:
		m.opIdx++
		v.sched.Submit(m.th, op.Dur, m.stepFn)

	case workload.OpAlloc:
		stall, ok := v.allocate(m, op)
		if !ok {
			// Allocation failure parked the mutator for GC; the retry
			// re-enters step at the same op.
			return
		}
		m.opIdx++
		// A saturated memory channel stretches the allocation's segment.
		v.sched.Submit(m.th, op.Dur+stall, m.stepFn)

	case workload.OpAcquire:
		mon := v.shared[op.Lock]
		m.opIdx++
		v.acquireOwned(m, mon, m.stepFn)

	case workload.OpRelease:
		mon := v.shared[op.Lock]
		v.releaseMonitor(m, mon)
		m.opIdx++
		v.step(m)

	default:
		panic("vm: unknown op kind")
	}
}

// completeUnit retires the objects scheduled to die at this unit's end and
// moves on.
func (v *vm) completeUnit(m *mutator) {
	bucket := m.unitCount % int64(len(m.unitRing))
	for _, id := range m.unitRing[bucket] {
		v.kill(id)
	}
	m.unitRing[bucket] = m.unitRing[bucket][:0]
	m.unitCount++
	if v.openSt != nil {
		v.openComplete(m)
		return
	}
	v.fetchWork(m)
}

// finishMutator retires a drained mutator and, when it is the last one,
// either starts the next iteration or ends the run. Between iterations the
// thread parks rather than terminating, so it can be revived.
func (v *vm) finishMutator(m *mutator) {
	lastIteration := v.iteration+1 >= v.cfg.Iterations
	v.setMutatorState(m, stDone)
	v.aliveCount--
	v.emitTrace(trace.Event{Kind: trace.ThreadEnd, Time: v.sim.Now(), Thread: int32(m.idx)})
	if lastIteration {
		v.sched.Terminate(m.th)
	} else {
		v.sched.Block(m.th)
	}
	if v.aliveCount == 0 {
		if lastIteration {
			v.finishRun()
		} else {
			v.startNextIteration()
		}
		return
	}
	// A finishing thread may complete a barrier rendezvous (everyone
	// else already waits) or a pending safepoint.
	if v.barArrived > 0 && v.barArrived == v.aliveCount {
		v.releaseBarrier(nil)
	}
	v.maybeStartGC()
}

// finishRun retires every still-live object at the final allocation clock
// (as Elephant Tracks does at program exit) and stamps the end time.
func (v *vm) finishRun() {
	v.recordIteration()
	v.finished = true
	v.endTime = v.sim.Now()
	v.sim.Cancel(v.guardEv)
	v.retireLive()
}

// setMutatorState transitions m and maintains the running/safepoint census.
func (v *vm) setMutatorState(m *mutator, s mutatorState) {
	if m.state == s {
		return
	}
	if m.state == stRunning {
		v.runningCount--
	}
	if s == stRunning {
		v.runningCount++
	}
	m.state = s
}

// --- Lock helpers -----------------------------------------------------

// acquireThen takes mon for m (blocking on contention), holds it for hold
// of CPU time, releases, then continues with then.
//
// The acquisition in flight is described by per-mutator fields (atMon,
// atHold, atThen, acqMon, acqOwned) consumed by pre-bound continuations
// rather than captured by per-call closures: a mutator drives at most one
// acquisition at a time, and while it is parked or holding it executes
// nothing else, so the fields cannot be clobbered before their
// continuation reads them. This keeps the lock round trip — the VM's
// hottest allocation site before this change — closure-free.
func (v *vm) acquireThen(m *mutator, mon *locks.Monitor, hold sim.Time, then func()) {
	m.atMon, m.atHold, m.atThen = mon, hold, then
	v.acquireOwned(m, mon, m.atOwnedFn)
}

// atOwned runs when acquireThen's monitor is held: spend the hold as a
// CPU segment, then release and continue.
func (v *vm) atOwned(m *mutator) {
	v.sched.Submit(m.th, m.atHold, m.atReleaseFn)
}

// atRelease ends acquireThen's critical section. The fields clear before
// the continuation runs, because then() frequently starts the mutator's
// next acquireThen (barrier polling chains).
func (v *vm) atRelease(m *mutator) {
	mon, then := m.atMon, m.atThen
	m.atMon, m.atThen = nil, nil
	v.releaseMonitor(m, mon)
	then()
}

// acquireOwned takes mon for m and calls owned once the monitor is held.
// The contention policy decides the contended path: park until a handoff
// or competitive wakeup, or spin a CPU budget and retry. owned must be a
// pre-bound per-mutator continuation (stepFn, atOwnedFn) so the
// acquisition captures no closure.
func (v *vm) acquireOwned(m *mutator, mon *locks.Monitor, owned func()) {
	m.acqMon, m.acqOwned = mon, owned
	v.attemptAcquire(m, false)
}

// attemptAcquire drives one acquisition attempt (or, with retry set, a
// re-attempt after a spin or competitive wakeup) to rest: acqOwned runs
// once the monitor is held; a Spinning outcome burns the policy's budget
// as a CPU segment — charged to mutator time, like a real busy-wait —
// before retrying; a Parked outcome blocks the thread until
// releaseMonitor either grants it the monitor (resume) or wakes it to
// race (lockRetry). The wake continuations read m.acqMon/m.acqOwned at
// wake time; a parked mutator runs nothing, so they are exactly the
// values this attempt stored.
func (v *vm) attemptAcquire(m *mutator, retry bool) {
	tid := locks.ThreadID(m.idx)
	now := v.sim.Now()
	var out locks.Outcome
	if retry {
		out = v.locks.Retry(m.acqMon, tid, now)
	} else {
		out = v.locks.Acquire(m.acqMon, tid, now)
	}
	switch out.Kind {
	case locks.Acquired:
		m.acqOwned()
	case locks.Spinning:
		v.sched.Submit(m.th, out.Spin, m.spinRetryFn)
	case locks.Parked:
		m.parkedContended = out.Contended
		v.setMutatorState(m, stLockWait)
		m.resume = m.lockResumeFn
		m.lockRetry = m.lockRetryFn
		v.sched.Block(m.th)
		v.maybeStartGC()
	default:
		panic("vm: unknown lock outcome")
	}
}

// lockResume is the granted-handoff wake: the releaser handed m the
// monitor, so the pending owned continuation runs directly.
func (v *vm) lockResume(m *mutator) {
	m.resume, m.lockRetry = nil, nil
	v.setMutatorState(m, stRunning)
	m.acqOwned()
}

// lockRetryWake is the competitive wake: the monitor was freed, not
// handed over, and m must race for it again.
func (v *vm) lockRetryWake(m *mutator) {
	m.resume, m.lockRetry = nil, nil
	v.setMutatorState(m, stRunning)
	v.attemptAcquire(m, true)
}

// releaseMonitor releases mon, wakes the thread the policy handed the
// monitor to (if any), and wakes every competitive waiter to re-attempt.
// A wake that resolves a probe-firing park is charged the workload's
// ContentionCost as a CPU segment ahead of the continuation — the unpark
// round trip of the contended slow path. Parks the policy resolved
// without the probe (restricted's gate grants) wake free, which is how a
// nonzero ContentionCost separates the disciplines in the time domain.
func (v *vm) releaseMonitor(m *mutator, mon *locks.Monitor) {
	h := v.locks.Release(mon, locks.ThreadID(m.idx), v.sim.Now())
	if h.Direct {
		other := v.mutators[int(h.Next)]
		v.sched.Unblock(other.th)
		resume := other.resume
		v.sched.Submit(other.th, v.wakeCost(other), resume)
	}
	for _, w := range h.Retry {
		other := v.mutators[int(w.ID)]
		v.sched.Unblock(other.th)
		retry := other.lockRetry
		v.sched.Submit(other.th, v.wakeCost(other), retry)
	}
}

// wakeCost consumes m's pending slow-path charge: ContentionCost when the
// park being resolved fired the contended-enter probe, zero otherwise.
func (v *vm) wakeCost(m *mutator) sim.Time {
	if !m.parkedContended {
		return 0
	}
	m.parkedContended = false
	return v.spec.ContentionCost
}

// --- Phase barrier ------------------------------------------------------

// enterBarrier models the end-of-phase rendezvous: the thread polls the
// work source a few times (failed steals — counted lock traffic), then
// registers its arrival under the barrier lock. The last arriver executes
// the phase's sequential section and releases everyone.
func (v *vm) enterBarrier(m *mutator) {
	m.barPollsLeft = barrierPolls
	v.barrierPollLoop(m)
}

func (v *vm) barrierPollLoop(m *mutator) {
	if m.barPollsLeft == 0 {
		v.arriveBarrier(m)
		return
	}
	m.barPollsLeft--
	pollLock := v.queueLock
	if pollLock == nil {
		pollLock = v.barrierLock
	}
	v.acquireThen(m, pollLock, pollCost, m.barPollFn)
}

// arriveBarrier registers arrival under the barrier lock.
func (v *vm) arriveBarrier(m *mutator) {
	v.acquireThen(m, v.barrierLock, barrierHold, m.barArriveFn)
}

// barrierArrived runs under the barrier lock: register arrival; the last
// arriver executes the phase's sequential section and releases everyone.
func (v *vm) barrierArrived(m *mutator) {
	v.barArrived++
	if v.barArrived >= v.aliveCount {
		// Last arriver: run the sequential section, then open the
		// next phase.
		if v.seqPerPhase > 0 {
			v.sched.Submit(m.th, v.seqPerPhase, m.barSeqFn)
		} else {
			v.releaseBarrier(m)
		}
		return
	}
	v.setMutatorState(m, stBarrier)
	v.sched.Block(m.th)
	v.maybeStartGC()
}

// releaseBarrier opens the next phase and wakes every waiting thread.
// opener is the last-arriving mutator, or nil when a thread termination
// completed the rendezvous.
func (v *vm) releaseBarrier(opener *mutator) {
	v.currentPhase++
	v.barArrived = 0
	for _, w := range v.mutators {
		if w.state != stBarrier {
			continue
		}
		v.setMutatorState(w, stRunning)
		v.sched.Unblock(w.th)
		v.sched.Submit(w.th, 0, w.fetchFn)
	}
	if opener != nil {
		v.fetchWork(opener)
	}
}

// --- Stop-the-world coordination ---------------------------------------

// parkForGC parks a mutator at a safepoint; onResume re-enters the
// interpreter after the world restarts.
func (v *vm) parkForGC(m *mutator, onResume func()) {
	v.setMutatorState(m, stGCWait)
	m.resume = onResume
	v.sched.Block(m.th)
	v.maybeStartGC()
}
