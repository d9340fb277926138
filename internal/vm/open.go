package vm

import (
	"javasim/internal/metrics"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// Open-system execution model (Config.Traffic)
//
// The closed loop runs N mutators that iterate over a fixed work pool;
// the open system turns the same mutators into a server pool draining a
// request queue fed by an arrival process. A request's lifecycle is
// arrival -> queue -> dispatch onto an idle server thread -> unit
// execution (the existing interpreter, including the accept-queue lock)
// -> completion, or abandonment when its queue wait exceeds the
// admission timeout. Arrivals are simulation events on the same virtual
// clock as everything else, drawn from a forked RNG stream, so open
// runs stay bit-for-bit reproducible per seed.
//
// Idle servers sit in a distinct state (stIdleOpen): like every parked
// state it does not block a stop-the-world safepoint census, but unlike
// stGCWait it is not resumed by resumeWorld — idle servers wake only
// when a request is dispatched to them.

// arrivalStreamLabel forks the arrival process's RNG stream off the
// run seed, decorrelated from the workload's unit-generation stream.
const arrivalStreamLabel = 0xA221<<32 | 0x051A

// openState is the open-system driver's run state.
type openState struct {
	proc traffic.Process
	rng  *sim.Rand

	arrivalsLeft int
	arriveFn     func() // pre-bound openArrive

	// queue holds arrival timestamps FIFO; head indexes the next entry.
	// The slice compacts when the head passes half the backing array.
	queue []sim.Time
	head  int

	// idle is the stack of parked servers; committed counts servers
	// woken for a dispatch that have not yet reached their dequeue, so
	// arrivals never wake more servers than there are queued requests.
	idle      []*mutator
	committed int

	stats *traffic.Stats

	// Time-weighted queue-depth accounting.
	lastChange    sim.Time
	depthIntegral float64
	depthMax      int
}

// setupOpen installs the open-system driver and schedules the first
// arrival. proc is the resolved arrival process.
func (v *vm) setupOpen(proc traffic.Process) {
	requests := openRequests(v.spec, v.cfg)
	o := &openState{
		proc:         proc,
		rng:          sim.NewRand(v.cfg.Seed).Fork(arrivalStreamLabel),
		arrivalsLeft: requests,
		stats: &traffic.Stats{
			Process:    v.cfg.Traffic.Process,
			RatePerSec: v.cfg.Traffic.RatePerSec,
			Latency:    metrics.NewHistogram(v.spec.Name + "-latency"),
			QueueWait:  metrics.NewHistogram(v.spec.Name + "-queue-wait"),
		},
	}
	o.arriveFn = v.openArrive
	v.openSt = o
	v.sim.Schedule(proc.Next(0, o.rng), o.arriveFn)
}

// openRequests is the number of requests an open run injects: the
// traffic's Requests, or one per unit of the spec when that is zero.
func openRequests(spec workload.Spec, cfg Config) int {
	if cfg.Traffic.Requests > 0 {
		return cfg.Traffic.Requests
	}
	return spec.TotalUnits
}

// qlen returns the number of queued (not yet dequeued) requests,
// including entries that will lazily expire at their dequeue.
func (o *openState) qlen() int { return len(o.queue) - o.head }

// noteDepth closes the current depth interval.
func (o *openState) noteDepth(now sim.Time) {
	depth := o.qlen()
	o.depthIntegral += float64(depth) * float64(now-o.lastChange)
	o.lastChange = now
	if depth > o.depthMax {
		o.depthMax = depth
	}
}

// push enqueues an arrival timestamp.
func (o *openState) push(at sim.Time) {
	o.noteDepth(at)
	o.queue = append(o.queue, at)
}

// pop dequeues the oldest arrival timestamp.
func (o *openState) pop(now sim.Time) sim.Time {
	o.noteDepth(now)
	at := o.queue[o.head]
	o.head++
	if o.head > len(o.queue)/2 && o.head > 64 {
		o.queue = append(o.queue[:0], o.queue[o.head:]...)
		o.head = 0
	}
	return at
}

// openArrive is the arrival event: record the request, enqueue it,
// schedule the next arrival, and dispatch an idle server if one exists.
func (v *vm) openArrive() {
	if v.finished {
		return
	}
	o := v.openSt
	now := v.sim.Now()
	o.stats.Offered++
	o.arrivalsLeft--
	o.push(now)
	if o.arrivalsLeft > 0 {
		v.sim.Schedule(o.proc.Next(now, o.rng), o.arriveFn)
	}
	v.openDispatch()
}

// openDispatch wakes idle servers, one per queued request that no
// already-woken server is committed to. During a pending stop-the-world
// it does nothing; resumeWorld re-dispatches once the world restarts.
func (v *vm) openDispatch() {
	o := v.openSt
	for len(o.idle) > 0 && o.qlen() > o.committed && !v.stwPending {
		m := o.idle[len(o.idle)-1]
		o.idle = o.idle[:len(o.idle)-1]
		o.committed++
		m.openWoken = true
		v.setMutatorState(m, stRunning)
		v.sched.Unblock(m.th)
		v.sched.Submit(m.th, 0, m.fetchFn)
	}
}

// openFetch is the open-mode fetchFn: honor a pending safepoint, then
// dequeue under the accept-queue lock (when the workload has one — the
// contended front door of a real server).
func (v *vm) openFetch(m *mutator) {
	if v.stwPending && v.affectedBySTW(m) {
		v.parkForGC(m, m.fetchFn)
		return
	}
	if v.queueLock != nil {
		v.acquireThen(m, v.queueLock, v.spec.QueueLockHold, m.openTakeFn)
		return
	}
	v.openTake(m)
}

// openTake dequeues the next live request for m, lazily expiring
// requests whose queue wait exceeded the admission timeout, and starts
// interpreting its unit. An empty queue parks the server.
func (v *vm) openTake(m *mutator) {
	o := v.openSt
	if m.openWoken {
		m.openWoken = false
		o.committed--
	}
	now := v.sim.Now()
	timeout := v.cfg.Traffic.Timeout
	for o.qlen() > 0 {
		at := o.pop(now)
		if timeout > 0 && now-at > timeout {
			o.stats.TimedOut++
			continue
		}
		o.stats.QueueWait.Add(int64(now - at))
		m.reqArrival = at
		m.unit = v.run.TakeOpen(m.idx)
		m.opIdx = 0
		v.step(m)
		return
	}
	v.openIdle(m)
}

// openComplete records a served request's latency and fetches the next.
func (v *vm) openComplete(m *mutator) {
	o := v.openSt
	o.stats.Completed++
	o.stats.Latency.Add(int64(v.sim.Now() - m.reqArrival))
	v.openFetch(m)
}

// openIdle parks a server with no work. The last server to go idle
// after the arrival process is exhausted ends the run.
func (v *vm) openIdle(m *mutator) {
	o := v.openSt
	v.setMutatorState(m, stIdleOpen)
	o.idle = append(o.idle, m)
	v.sched.Block(m.th)
	if o.arrivalsLeft == 0 && o.qlen() == 0 && len(o.idle) == len(v.mutators) {
		v.openFinish()
		return
	}
	// An idling server may be the last affected mutator a pending
	// safepoint was waiting on.
	v.maybeStartGC()
}

// openFinish terminates the server pool and closes the run.
func (v *vm) openFinish() {
	now := v.sim.Now()
	for _, m := range v.mutators {
		v.setMutatorState(m, stDone)
		v.aliveCount--
		v.emitTrace(trace.Event{Kind: trace.ThreadEnd, Time: now, Thread: int32(m.idx)})
		v.sched.Terminate(m.th)
	}
	v.openSt.idle = v.openSt.idle[:0]
	v.finishRun()
}

// openResult finalizes the traffic stats for the Result record.
func (o *openState) openResult(end sim.Time) *traffic.Stats {
	// Close the last depth interval; the queue is empty at run end.
	o.depthIntegral += float64(o.qlen()) * float64(end-o.lastChange)
	o.stats.QueueDepthMax = o.depthMax
	if end > 0 {
		o.stats.QueueDepthMean = o.depthIntegral / float64(end)
	}
	return o.stats
}
