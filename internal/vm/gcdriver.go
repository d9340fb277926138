package vm

import (
	"errors"
	"fmt"

	"javasim/internal/gc"
	"javasim/internal/heap"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/workload"
)

// allocate performs one OpAlloc for m: TLAB fast path, direct eden
// allocation for large objects, and the allocation-failure path that
// requests a collection. It returns ok=false when the mutator was parked
// for GC — the post-GC resume retries the same op. On bandwidth-limited
// machines, stall is the memory-channel backlog the mutator must absorb
// before continuing; traffic is billed at heap-crossing granularity (TLAB
// refills and TLAB-bypassing allocations), so the TLAB bump-pointer fast
// path — including fused op runs, which never refill — stays free.
func (v *vm) allocate(m *mutator, op *workload.Op) (stall sim.Time, ok bool) {
	size := int64(op.Size)
	pretenure := v.pret.enabled && v.pret.shouldPretenure(op.Site)
	if pretenure {
		if !v.heap.AllocOld(size) {
			// Only a compacting collection can make room in the old
			// generation.
			v.requestFullGC(m)
			return 0, false
		}
		stall = v.billAllocTraffic(m, size)
	} else if tlabSize := v.heap.Config().TLABSize; size*4 > tlabSize {
		// Large object: straight into eden, bypassing the TLAB.
		if !v.heap.AllocDirect(m.compartment, size) {
			v.requestGC(m)
			return 0, false
		}
		stall = v.billAllocTraffic(m, size)
	} else if !m.tlab.Alloc(size) {
		if !v.heap.RefillTLAB(&m.tlab, m.compartment) {
			v.requestGC(m)
			return 0, false
		}
		if !m.tlab.Alloc(size) {
			panic("vm: allocation exceeds a fresh TLAB") // excluded by the size*4 check
		}
		stall = v.billAllocTraffic(m, v.tlabSize)
	}
	m.gcRetries = 0
	v.commitAlloc(m, op, pretenure)
	return stall, true
}

// billAllocTraffic charges bytes of mutator allocation traffic against
// the socket of m's NUMA home (its first-dispatch socket; socket 0 before
// the first dispatch). On machines without a bandwidth ceiling it is a
// cheap no-op.
func (v *vm) billAllocTraffic(m *mutator, bytes int64) sim.Time {
	if !v.mach.HasBandwidthLimit() {
		return 0
	}
	socket := m.th.HomeSocket()
	if socket < 0 {
		socket = 0
	}
	return v.mach.BillTraffic(socket, bytes, v.sim.Now())
}

// billGCCopy charges the collector's evacuation traffic, spread evenly
// across the sockets the run spans (parallel GC workers copy from every
// node), and returns the slowest socket's stall — the pause extension the
// whole stopped world observes.
func (v *vm) billGCCopy(bytes int64) sim.Time {
	if !v.mach.HasBandwidthLimit() || bytes <= 0 {
		return 0
	}
	now := v.sim.Now()
	share := bytes / int64(v.spanned)
	rem := bytes - share*int64(v.spanned)
	var worst sim.Time
	for s := 0; s < v.spanned; s++ {
		b := share
		if s == 0 {
			b += rem
		}
		if st := v.mach.BillTraffic(s, b, now); st > worst {
			worst = st
		}
	}
	return worst
}

// commitAlloc performs the bookkeeping of a successful allocation whose
// space is already reserved: the registry record, generation tracking,
// the trace event, and the death schedule (including any deaths due at
// this allocation count). It is shared by allocate and the fused-op path,
// which reserves a whole run of TLAB allocations up front.
func (v *vm) commitAlloc(m *mutator, op *workload.Op, pretenure bool) {
	id := v.reg.Alloc(op.Size, uint8(op.Site))
	if pretenure {
		v.pret.pretenured++
		v.gc.OnAllocOld(id)
	} else {
		v.gc.OnAlloc(id, m.compartment)
	}
	if v.cfg.TraceSink != nil {
		v.traceAlloc(id, m, op.Size)
	}

	// Schedule the object's death, then retire anything due at this
	// allocation count.
	m.allocCount++
	switch op.Death.Mode {
	case workload.DieAfterOwnAllocs:
		bucket := (m.allocCount + int64(op.Death.N)) % int64(len(m.allocRing))
		m.allocRing[bucket] = append(m.allocRing[bucket], id)
	case workload.DieAtUnitsAhead:
		bucket := (m.unitCount + int64(op.Death.N)) % int64(len(m.unitRing))
		m.unitRing[bucket] = append(m.unitRing[bucket], id)
	case workload.Immortal:
		// Dies at program exit.
	}
	due := m.allocCount % int64(len(m.allocRing))
	for _, dead := range m.allocRing[due] {
		v.kill(dead)
	}
	m.allocRing[due] = m.allocRing[due][:0]
}

// requestGC initiates (or joins) a stop-the-world collection request and
// parks the requesting mutator; its retry re-enters step at the failed op.
func (v *vm) requestGC(m *mutator) {
	m.gcRetries++
	if m.gcRetries > 8 {
		v.fail(fmt.Errorf("vm: %s thread %d cannot allocate even after repeated collections — OutOfMemoryError "+
			"(comp=%d edenUsed=%d/%d survivor=%d/%d old=%d/%d tlab=%d stw=%v queue=%v)",
			v.spec.Name, m.idx, m.compartment,
			v.heap.EdenUsed(m.compartment), v.heap.EdenSliceSize(),
			v.heap.SurvivorUsed(), v.heap.SurvivorSize(),
			v.heap.OldUsed(), v.heap.OldSize(),
			v.heap.Config().TLABSize, v.stwPending, v.gcQueue))
		return
	}
	// Queue the compartment so back-to-back collections of different
	// compartments cannot starve a full one: every pending request is
	// served in order after the current stop completes.
	if !(v.stwPending && v.stwComp == m.compartment) && !v.gcQueued(m.compartment) {
		v.gcQueue = append(v.gcQueue, m.compartment)
	}
	if !v.stwPending {
		v.startNextGC(m)
	} else if v.stwRequester == nil && v.stwComp == m.compartment {
		v.stwRequester = m
	}
	v.parkForGC(m, m.stepFn)
}

// requestFullGC is the pretenuring allocation-failure path: the old
// generation itself is full, so only a global, compacting collection
// helps. Any pending request escalates to global scope.
func (v *vm) requestFullGC(m *mutator) {
	m.gcRetries++
	if m.gcRetries > 8 {
		v.fail(fmt.Errorf("vm: %s thread %d cannot pretenure even after full collections — OutOfMemoryError",
			v.spec.Name, m.idx))
		return
	}
	if !v.stwPending {
		if !v.gcQueued(m.compartment) {
			v.gcQueue = append(v.gcQueue, m.compartment)
		}
		v.startNextGC(m)
	}
	v.stwGlobal = true
	v.stwWantFull = true
	v.parkForGC(m, m.stepFn)
}

func (v *vm) gcQueued(comp int) bool {
	for _, c := range v.gcQueue {
		if c == comp {
			return true
		}
	}
	return false
}

// startNextGC initiates a stop for the head of the compartment queue.
// requester, when known, is resumed first after the collection.
func (v *vm) startNextGC(requester *mutator) {
	v.stwPending = true
	v.stwGlobal = v.heap.Compartments() == 1
	v.stwComp = v.gcQueue[0]
	v.gcQueue = v.gcQueue[1:]
	v.stwRequester = requester
	v.stwStart = v.sim.Now()
	// Waking the scheduler lets phase-gated threads reach their safepoint
	// polls instead of waiting out the phase.
	v.sched.Kick()
}

// affectedBySTW reports whether the pending collection requires m to park:
// everyone for a global stop, otherwise only the collected compartment's
// mutators — the pause isolation that motivates the compartmentalized
// heap (paper §IV, suggestion 2).
func (v *vm) affectedBySTW(m *mutator) bool {
	return v.stwGlobal || m.compartment == v.stwComp
}

// maybeStartGC runs the pending collection once every affected mutator
// has reached a safepoint (parked on a lock, a barrier, the GC itself, or
// terminated).
func (v *vm) maybeStartGC() {
	if !v.stwPending || v.stwCollecting {
		return
	}
	for _, m := range v.mutators {
		if m.state == stRunning && v.affectedBySTW(m) {
			return
		}
	}
	now := v.sim.Now()
	var total sim.Time
	var copied int64
	if v.stwWantFull {
		v.stwWantFull = false
		fullPause, ferr := v.gc.CollectFull(now)
		if ferr != nil {
			v.fail(fmt.Errorf("vm: %s forced full collection failed: %w", v.spec.Name, ferr))
			return
		}
		v.cmsAbort()
		v.emitGCTrace(fullPause)
		total += fullPause.Duration
		copied += fullPause.CopiedBytes + fullPause.PromotedBytes
	}
	pause, err := v.gc.CollectMinor(v.stwComp, now)
	if errors.Is(err, heap.ErrOldGenFull) {
		if !v.stwGlobal {
			// A full collection needs the whole world stopped; escalate
			// the scope and wait for the newly affected mutators. The
			// time-to-safepoint window keeps running until the collection
			// actually starts.
			v.stwGlobal = true
			v.maybeStartGC()
			return
		}
		fullPause, ferr := v.gc.CollectFull(now)
		if ferr != nil {
			v.fail(fmt.Errorf("vm: %s full collection failed: %w", v.spec.Name, ferr))
			return
		}
		// A compacting collection supersedes any in-flight concurrent
		// cycle (CMS's "concurrent mode failure" recovery).
		v.cmsAbort()
		v.emitGCTrace(fullPause)
		total += fullPause.Duration
		copied += fullPause.CopiedBytes + fullPause.PromotedBytes
		pause, err = v.gc.CollectMinor(v.stwComp, now)
	}
	if err != nil {
		v.fail(fmt.Errorf("vm: %s minor collection failed: %w", v.spec.Name, err))
		return
	}
	v.emitGCTrace(pause)
	total += pause.Duration
	copied += pause.CopiedBytes + pause.PromotedBytes
	if v.cms.on {
		v.cmsMaybeTrigger()
		total += v.cmsOnMinorPause(now)
	}
	// Evacuation and promotion move bytes through the memory channels; on
	// bandwidth-limited machines the backlog extends the pause.
	total += v.billGCCopy(copied)

	ttsp := now - v.stwStart
	v.safepointTime += ttsp
	v.gcTime += ttsp + total
	// The pause is now in progress: further parks must not re-run the
	// collection or schedule duplicate world resumptions.
	v.stwCollecting = true
	v.sim.Schedule(total, v.resumeWorld)
}

// resumeWorld restarts every safepoint-parked mutator after a collection.
// The allocation-failure requester resumes first so it retries into the
// freshly emptied eden before other threads can exhaust it again.
func (v *vm) resumeWorld() {
	v.stwPending = false
	v.stwCollecting = false
	requester := v.stwRequester
	v.stwRequester = nil
	resumeOne := func(m *mutator) {
		if m.state != stGCWait {
			return
		}
		v.setMutatorState(m, stRunning)
		v.sched.Unblock(m.th)
		resume := m.resume
		m.resume = nil
		v.sched.Submit(m.th, 0, resume)
	}
	if requester != nil {
		resumeOne(requester)
	}
	for _, m := range v.mutators {
		if m != requester {
			resumeOne(m)
		}
	}
	// Phase-gated threads that ran under the safepoint override are gated
	// again; re-dispatching idle cores re-arms their phase wakeups.
	v.sched.Kick()
	// Serve the next queued compartment, if any; the just-resumed threads
	// park again at their next safepoint polls.
	if len(v.gcQueue) > 0 {
		v.startNextGC(nil)
	}
	// Requests that arrived during the pause wait in the queue; hand
	// them to idle servers now that the world is running again (a no-op
	// when another collection is already pending).
	if v.openSt != nil {
		v.openDispatch()
	}
}

// emitGCTrace records one pause as a GCStart/GCEnd pair: the per-pause
// detail a Result keeps only as GCStats totals.
func (v *vm) emitGCTrace(p gc.Pause) {
	v.emitTrace(trace.Event{Kind: trace.GCStart, Time: p.Start, Thread: int32(p.Compartment), Clock: v.reg.Clock(), Arg: int64(p.Kind)})
	v.emitTrace(trace.Event{Kind: trace.GCEnd, Time: p.Start, Clock: v.reg.Clock(), Arg: int64(p.Duration)})
}

// fail aborts the run with err.
func (v *vm) fail(err error) {
	v.runErr = err
	v.sim.Stop()
}
