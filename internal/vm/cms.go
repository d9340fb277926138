package vm

import (
	"fmt"

	"javasim/internal/sched"
	"javasim/internal/sim"
)

// Concurrent-collection cycle driver, active when the GC policy collects
// the old generation concurrently (gc.Policy.ConcurrentOld).
//
// The cycle follows CMS's shape: when old-generation occupancy crosses the
// trigger ratio, the next minor collection's pause absorbs a brief
// initial-mark; concurrent GC threads then mark live old objects while
// mutators keep running (competing for cores — the real cost of a
// concurrent collector); the following minor collection absorbs a remark
// pause; the GC threads sweep without compacting; fragmentation accrues
// until a concurrent-mode failure forces the ordinary stop-the-world full
// collection, which compacts and resets the cycle.

type cmsPhase uint8

const (
	cmsIdle cmsPhase = iota
	// cmsMarkPending waits for a minor collection to host initial-mark.
	cmsMarkPending
	// cmsMarking runs concurrent marking on the GC threads.
	cmsMarking
	// cmsRemarkPending waits for a minor collection to host remark.
	cmsRemarkPending
	// cmsSweeping runs the concurrent sweep on the GC threads.
	cmsSweeping
)

type cmsDriver struct {
	// on is set once per run, from the GC policy.
	on      bool
	phase   cmsPhase
	threads []*sched.Thread
	// busy counts GC threads still working on the current phase.
	busy int
	// generation invalidates in-flight work when a full collection aborts
	// the cycle.
	generation uint64
	// cpuTime accumulates concurrent GC processor time for reporting.
	cpuTime sim.Time
	cycles  int64
}

// chunk is the granularity of concurrent GC work: small enough to share
// cores fairly with mutators, large enough to keep event counts sane.
const cmsChunk = 200 * sim.Microsecond

func (v *vm) setupCMS() {
	v.cms.on = v.gc.Policy().ConcurrentOld()
	if !v.cms.on {
		return
	}
	// HotSpot's ConcGCThreads heuristic.
	n := max(1, v.gc.Config().Workers/4)
	for i := 0; i < n; i++ {
		v.cms.threads = append(v.cms.threads,
			v.sched.NewThread(fmt.Sprintf("cms-%d", i), sched.DefaultWeight))
	}
}

// cmsMaybeTrigger arms a cycle when occupancy crosses the trigger ratio.
// Called after each collection commits.
func (v *vm) cmsMaybeTrigger() {
	if !v.cms.on || v.cms.phase != cmsIdle {
		return
	}
	if v.heap.OldPressure() >= v.gc.Config().TriggerRatio {
		v.cms.phase = cmsMarkPending
	}
}

// cmsOnMinorPause lets a pending phase transition piggyback its brief
// stop-the-world pause on the minor collection at time now. It returns
// the extra pause duration to fold into the current window.
func (v *vm) cmsOnMinorPause(now sim.Time) sim.Time {
	switch v.cms.phase {
	case cmsMarkPending:
		p := v.gc.InitialMark(now)
		v.cms.phase = cmsMarking
		work := v.gc.MarkWork(v.gc.OldLiveCount())
		v.cmsStartPhaseWork(work, func() {
			v.cms.phase = cmsRemarkPending
		})
		return p.Duration
	case cmsRemarkPending:
		p := v.gc.Remark(now)
		v.cms.phase = cmsSweeping
		v.cmsStartPhaseWork(v.gc.SweepWork(), func() {
			v.gc.SweepOld(v.sim.Now())
			v.cms.cycles++
			v.cms.phase = cmsIdle
		})
		return p.Duration
	default:
		return 0
	}
}

// cmsAbort cancels any in-flight cycle; a compacting full collection has
// superseded it. GC threads notice through the generation counter.
func (v *vm) cmsAbort() {
	if !v.cms.on || v.cms.phase == cmsIdle {
		return
	}
	v.cms.generation++
	v.cms.busy = 0
	v.cms.phase = cmsIdle
}

// cmsStartPhaseWork divides work across the GC threads in chunks and
// calls done when the last thread finishes.
func (v *vm) cmsStartPhaseWork(work sim.Time, done func()) {
	n := len(v.cms.threads)
	if n == 0 {
		panic("vm: concurrent phase with no GC threads")
	}
	if work <= 0 {
		// Nothing to do (empty old generation): complete the phase at the
		// next instant, off the caller's stack.
		v.sim.Schedule(0, done)
		return
	}
	gen := v.cms.generation
	v.cms.busy = n
	share := work / sim.Time(n)
	if share < 1 {
		share = 1
	}
	for _, th := range v.cms.threads {
		v.cmsThreadWork(th, share, gen, done)
	}
}

// cmsThreadWork runs one GC thread's share of a phase in chunks.
func (v *vm) cmsThreadWork(th *sched.Thread, remaining sim.Time, gen uint64, done func()) {
	if v.cms.generation != gen || v.finished {
		return // cycle aborted or run over; drop the work
	}
	d := remaining
	if d > cmsChunk {
		d = cmsChunk
	}
	v.sched.Submit(th, d, func() {
		v.cms.cpuTime += d
		left := remaining - d
		if left > 0 {
			v.cmsThreadWork(th, left, gen, done)
			return
		}
		if v.cms.generation != gen {
			return
		}
		v.cms.busy--
		if v.cms.busy == 0 {
			done()
		}
	})
}
