// Package sched models the operating-system thread scheduler under the
// simulated JVM: per-core run queues with weighted virtual-runtime fair
// scheduling (CFS-like), time-slice preemption, idle work stealing, and
// migration/NUMA placement costs.
//
// Threads do not run code; the VM drives each thread as a sequence of CPU
// bursts ("segments") via Submit. The scheduler decides when and where
// each segment executes and calls the segment's completion callback at the
// virtual time it finishes. Blocking (locks, safepoints, empty work
// queues) happens between segments, which mirrors how a JVM thread reaches
// a safepoint or parks: at well-defined poll points, not at arbitrary
// instructions.
//
// The package also implements the paper's first future-work proposal
// (§IV): phase-biased scheduling. With PhaseBias configured, worker
// threads are partitioned into groups and only one group is eligible to
// run at a time, rotating every PhaseLength. Spacing worker threads apart
// in time reduces allocation interleaving — the "lifetime interference"
// the paper blames for prolonged object lifespans.
package sched

import (
	"fmt"

	"javasim/internal/machine"
	"javasim/internal/sim"
)

// State is a thread's scheduling state.
type State uint8

const (
	// Idle threads have no pending segment; the VM has not submitted work.
	Idle State = iota
	// Ready threads wait in a run queue for a core.
	Ready
	// Running threads occupy a core.
	Running
	// Blocked threads are parked (lock wait, safepoint, I/O) and hold no
	// pending segment.
	Blocked
	// Terminated threads have finished and can never run again.
	Terminated
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Terminated:
		return "terminated"
	default:
		return "invalid"
	}
}

// DefaultWeight is the scheduling weight of an ordinary mutator thread.
// Lower weights receive proportionally less CPU (vruntime grows faster).
const DefaultWeight = 1024

// Thread is one schedulable entity.
type Thread struct {
	// ID is the dense thread index assigned at creation.
	ID int
	// Name labels the thread in reports ("worker-3", "jit-compiler").
	Name string
	// Weight is the fair-share weight; DefaultWeight for mutators.
	Weight int
	// MemoryIntensity in [0,1] scales how strongly NUMA-remote placement
	// slows this thread: 0 = pure compute, 1 = every cycle memory-bound.
	MemoryIntensity float64
	// Group is the phase-bias group, or NoGroup for always-eligible
	// threads (helpers, GC).
	Group int

	state      State
	core       int // core currently or last occupied; -1 before first run
	coreIdx    int // scheduler index of that core; -1 before first run
	homeSocket int // socket of first dispatch; NUMA home of its data

	vruntime sim.Time

	// Accounting, exposed through getters.
	cpuTime     sim.Time // effective core occupancy
	readyWait   sim.Time // total time spent Ready (runnable, no core)
	blockedTime sim.Time
	stateSince  sim.Time
	dispatches  int64
	migrations  int64
	preemptions int64

	// Current segment.
	remainingBase sim.Time // requested CPU time left, base units
	done          func()
	startedAt     sim.Time // dispatch time of current slice
	penalty1024   int64    // effective-time multiplier at current placement
	sliceEvent    *sim.Event
	continued     bool // set when done() resubmits in-place
}

// NoGroup marks threads exempt from phase-bias gating.
const NoGroup = -1

// State returns the current scheduling state.
func (t *Thread) State() State { return t.state }

// CPUTime returns the total effective core time consumed.
func (t *Thread) CPUTime() sim.Time { return t.cpuTime }

// ReadyWait returns the total time the thread sat runnable without a core.
// The paper's §III-B links this suspension time to prolonged object
// lifespans.
func (t *Thread) ReadyWait() sim.Time { return t.readyWait }

// BlockedTime returns the total time parked.
func (t *Thread) BlockedTime() sim.Time { return t.blockedTime }

// Dispatches returns how many times the thread was placed on a core.
func (t *Thread) Dispatches() int64 { return t.dispatches }

// Migrations returns how many dispatches landed on a different core than
// the previous one.
func (t *Thread) Migrations() int64 { return t.migrations }

// Preemptions returns how many times a time-slice expiry descheduled the
// thread with work remaining.
func (t *Thread) Preemptions() int64 { return t.preemptions }

// Core returns the core the thread last ran on, or -1.
func (t *Thread) Core() int { return t.core }

// HomeSocket returns the socket of the thread's first dispatch — the NUMA
// home of its data — or -1 before the first run.
func (t *Thread) HomeSocket() int { return t.homeSocket }

// PhaseBias configures phase-biased scheduling (future work (a)).
type PhaseBias struct {
	// Groups is the number of rotation groups; <= 1 disables biasing.
	Groups int
	// PhaseLength is how long each group stays eligible.
	PhaseLength sim.Time
}

// quantum is the preemption time slice.
const quantum = sim.Millisecond

// Config parameterizes the scheduler.
type Config struct {
	// Bias enables phase-biased scheduling when Bias.Groups > 1.
	Bias PhaseBias
	// Placement selects the run-queue placement discipline by registry
	// name ("affinity", "round-robin", "least-loaded", or a user
	// registration); empty means affinity.
	Placement string
}

type coreState struct {
	id      int
	idx     int // index within Scheduler.cores
	current *Thread
	queue   []*Thread
	// tick fires the core's slice timer. It is bound once in New, so
	// with the kernel's event pool arming a slice allocates nothing.
	tick func()
}

// Scheduler multiplexes threads onto the machine's enabled cores.
type Scheduler struct {
	sim     *sim.Simulator
	machine *machine.Machine
	cfg     Config

	cores   []coreState // one per enabled core
	threads []*Thread
	place   Placement

	// CMT pipeline sharing: nil on machines with one hardware thread per
	// core. siblings[i] lists the scheduler core indices (including i)
	// whose units issue through the same physical pipeline as core i;
	// issueWidth is how many of them can run at full speed concurrently.
	siblings   [][]int
	issueWidth int

	phaseWake []*sim.Event // per core, pending phase-boundary wakeup
	idleStart []sim.Time   // per core, when it last went idle; -1 if busy
	idleTotal []sim.Time

	// gateOverride, when set and returning true, suspends phase-bias
	// gating so every thread can be scheduled. The VM points this at its
	// safepoint-pending flag: a stop-the-world request must be able to
	// reach threads parked behind an inactive phase group, or
	// time-to-safepoint balloons to the phase length.
	gateOverride func() bool
}

// New builds a scheduler over the machine's currently enabled cores. An
// unknown Config.Placement name panics — check it with
// Placements.Validate before constructing.
func New(s *sim.Simulator, m *machine.Machine, cfg Config) *Scheduler {
	enabled := m.EnabledCores()
	if len(enabled) == 0 {
		panic("sched: no enabled cores")
	}
	newPlace, err := Placements.Get(cfg.Placement)
	if err != nil {
		panic(err.Error())
	}
	sc := &Scheduler{
		sim: s, machine: m, cfg: cfg, place: newPlace(),
		cores:     make([]coreState, len(enabled)),
		phaseWake: make([]*sim.Event, len(enabled)),
		idleStart: make([]sim.Time, len(enabled)),
		idleTotal: make([]sim.Time, len(enabled)),
	}
	for i, c := range enabled {
		sc.cores[i] = coreState{id: c, idx: i, tick: func() { sc.tick(i) }}
		sc.idleStart[i] = 0
	}
	if cfg.Bias.Groups > 1 && cfg.Bias.PhaseLength <= 0 {
		panic("sched: PhaseBias.PhaseLength must be positive")
	}
	if m.ThreadsPerCore() > 1 {
		sc.issueWidth = m.IssueWidth()
		group := make(map[int][]int)
		for i, c := range enabled {
			p := m.PipelineOf(c)
			group[p] = append(group[p], i)
		}
		sc.siblings = make([][]int, len(enabled))
		for i, c := range enabled {
			sc.siblings[i] = group[m.PipelineOf(c)]
		}
	}
	return sc
}

// NumCores returns the number of cores the scheduler multiplexes.
func (sc *Scheduler) NumCores() int { return len(sc.cores) }

// NewThread registers a thread. Group defaults to NoGroup (never gated).
func (sc *Scheduler) NewThread(name string, weight int) *Thread {
	if weight <= 0 {
		weight = DefaultWeight
	}
	t := &Thread{
		ID: len(sc.threads), Name: name, Weight: weight,
		Group: NoGroup, core: -1, coreIdx: -1, homeSocket: -1,
		stateSince: sc.sim.Now(),
	}
	sc.threads = append(sc.threads, t)
	return t
}

// Threads returns all registered threads in creation order.
func (sc *Scheduler) Threads() []*Thread { return sc.threads }

// setState moves t to state s, folding elapsed time into the accounting
// bucket of the state being left.
func (sc *Scheduler) setState(t *Thread, s State) {
	now := sc.sim.Now()
	elapsed := now - t.stateSince
	switch t.state {
	case Ready:
		t.readyWait += elapsed
	case Blocked:
		t.blockedTime += elapsed
	}
	t.state = s
	t.stateSince = now
}

// Submit requests that thread t consume d nanoseconds of CPU and then run
// done. It is legal when t is Idle or Blocked, or from inside t's own done
// callback (a continuation, which keeps the core without requeueing).
// Submitting for a Ready, Running, or Terminated thread panics: the VM
// must never double-schedule a thread.
func (sc *Scheduler) Submit(t *Thread, d sim.Time, done func()) {
	if d < 0 {
		panic(fmt.Sprintf("sched: negative segment %v for %s", d, t.Name))
	}
	if done == nil {
		panic("sched: nil done callback")
	}
	switch t.state {
	case Running:
		// Legal only as a continuation from t's own done callback, which
		// is the only code that can observe t Running with no slice event.
		if t.sliceEvent != nil || t.done != nil {
			panic(fmt.Sprintf("sched: Submit for running thread %s outside its done callback", t.Name))
		}
		t.remainingBase = d
		t.done = done
		t.continued = true
		return
	case Idle, Blocked:
		t.remainingBase = d
		t.done = done
		sc.enqueue(t)
	default:
		panic(fmt.Sprintf("sched: Submit for %s thread %s", t.state, t.Name))
	}
}

// Block parks a thread and labels its wait as blocking for the accounting
// split. It is legal for an Idle thread, or from inside the thread's own
// done callback (the usual case: the segment ended at a lock or safepoint
// poll and the thread must wait instead of running on — the core is
// released when the callback returns).
func (sc *Scheduler) Block(t *Thread) {
	switch {
	case t.state == Idle:
		sc.setState(t, Blocked)
	case t.state == Running && t.sliceEvent == nil && t.done == nil && !t.continued:
		sc.setState(t, Blocked)
	default:
		panic(fmt.Sprintf("sched: Block on %s thread %s", t.state, t.Name))
	}
}

// Unblock returns a Blocked thread to Idle without scheduling work.
func (sc *Scheduler) Unblock(t *Thread) {
	if t.state != Blocked {
		panic(fmt.Sprintf("sched: Unblock on %s thread %s", t.state, t.Name))
	}
	sc.setState(t, Idle)
}

// Terminate retires a thread permanently. It is legal for an off-CPU
// thread or from inside the thread's own done callback after its final
// segment.
func (sc *Scheduler) Terminate(t *Thread) {
	switch {
	case t.state == Idle || t.state == Blocked:
		sc.setState(t, Terminated)
	case t.state == Running && t.sliceEvent == nil && t.done == nil && !t.continued:
		sc.setState(t, Terminated)
	default:
		panic(fmt.Sprintf("sched: Terminate on %s thread %s", t.state, t.Name))
	}
}

// activeGroup returns the phase group currently eligible to run. Phases
// are derived from the clock rather than from periodic events so that an
// otherwise-finished simulation drains instead of rotating forever.
func (sc *Scheduler) activeGroup() int {
	return int((sc.sim.Now() / sc.cfg.Bias.PhaseLength) % sim.Time(sc.cfg.Bias.Groups))
}

// SetGateOverride installs a predicate that, while true, suspends
// phase-bias gating (see gateOverride).
func (sc *Scheduler) SetGateOverride(f func() bool) { sc.gateOverride = f }

// eligible reports whether phase biasing permits t to run now.
func (sc *Scheduler) eligible(t *Thread) bool {
	if sc.cfg.Bias.Groups <= 1 || t.Group == NoGroup {
		return true
	}
	if sc.gateOverride != nil && sc.gateOverride() {
		return true
	}
	return t.Group%sc.cfg.Bias.Groups == sc.activeGroup()
}

// armPhaseWake schedules a dispatch retry on core idx at the next phase
// boundary, when gated threads may become eligible. At most one wakeup is
// pending per core.
func (sc *Scheduler) armPhaseWake(idx int) {
	if sc.cfg.Bias.Groups <= 1 || sc.phaseWake[idx] != nil {
		return
	}
	boundary := (sc.sim.Now()/sc.cfg.Bias.PhaseLength + 1) * sc.cfg.Bias.PhaseLength
	sc.phaseWake[idx] = sc.sim.At(boundary, func() {
		sc.phaseWake[idx] = nil
		if sc.cores[idx].current == nil {
			sc.dispatch(idx)
		}
	})
}

// gatedCount returns the number of Ready threads currently ineligible due
// to phase biasing, across all queues.
func (sc *Scheduler) gatedCount() int {
	if sc.cfg.Bias.Groups <= 1 {
		return 0
	}
	n := 0
	for i := range sc.cores {
		for _, t := range sc.cores[i].queue {
			if !sc.eligible(t) {
				n++
			}
		}
	}
	return n
}

// enqueue places t in the run queue the placement picks and dispatches if
// that core is free.
func (sc *Scheduler) enqueue(t *Thread) {
	sc.setState(t, Ready)
	target := sc.place.PickCore(sc, t)
	if target < 0 || target >= len(sc.cores) {
		panic(fmt.Sprintf("sched: placement %q picked core %d of %d", sc.place.Name(), target, len(sc.cores)))
	}
	sc.cores[target].queue = append(sc.cores[target].queue, t)
	if sc.cores[target].current == nil {
		sc.dispatch(target)
	}
}

// PlacementName returns the registry name of the scheduler's placement.
func (sc *Scheduler) PlacementName() string { return sc.place.Name() }

// CoreLoad returns the number of threads resident on scheduler core idx:
// its queue length plus the running thread, if any. Placement
// implementations use it to compare queues.
func (sc *Scheduler) CoreLoad(idx int) int {
	c := &sc.cores[idx]
	load := len(c.queue)
	if c.current != nil {
		load++
	}
	return load
}

// SocketOfCore returns the machine socket of scheduler core idx.
func (sc *Scheduler) SocketOfCore(idx int) int {
	return sc.machine.SocketOf(sc.cores[idx].id)
}

func (sc *Scheduler) coreIndex(coreID int) (int, bool) {
	for i := range sc.cores {
		if sc.cores[i].id == coreID {
			return i, true
		}
	}
	return 0, false
}

// pickNext removes and returns the next thread for core idx: the eligible
// minimum-vruntime thread in its own queue, else one stolen: the
// eligible min-vruntime thread from the longest other queue.
func (sc *Scheduler) pickNext(idx int) *Thread {
	if t := sc.takeMin(idx); t != nil {
		return t
	}
	victim, victimLen := -1, 0
	for i := range sc.cores {
		if i == idx {
			continue
		}
		if n := sc.eligibleCount(i); n > victimLen {
			victim, victimLen = i, n
		}
	}
	if victim < 0 {
		return nil
	}
	return sc.takeMin(victim)
}

func (sc *Scheduler) eligibleCount(idx int) int {
	n := 0
	for _, t := range sc.cores[idx].queue {
		if sc.eligible(t) {
			n++
		}
	}
	return n
}

// takeMin removes the eligible thread with minimum vruntime from queue
// idx, or returns nil.
func (sc *Scheduler) takeMin(idx int) *Thread {
	q := sc.cores[idx].queue
	best := -1
	for i, t := range q {
		if !sc.eligible(t) {
			continue
		}
		if best < 0 || t.vruntime < q[best].vruntime {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := q[best]
	sc.cores[idx].queue = append(q[:best], q[best+1:]...)
	return t
}

// dispatch places the next thread on core idx if one is available.
func (sc *Scheduler) dispatch(idx int) {
	c := &sc.cores[idx]
	if c.current != nil {
		return
	}
	t := sc.pickNext(idx)
	if t == nil {
		if sc.idleStart[idx] < 0 {
			sc.idleStart[idx] = sc.sim.Now()
		}
		if sc.gatedCount() > 0 {
			sc.armPhaseWake(idx)
		}
		return
	}
	if sc.idleStart[idx] >= 0 {
		sc.idleTotal[idx] += sc.sim.Now() - sc.idleStart[idx]
		sc.idleStart[idx] = -1
	}
	c.current = t
	migrated := t.core >= 0 && t.core != c.id
	if migrated {
		t.migrations++
	}
	t.core = c.id
	t.coreIdx = idx
	if t.homeSocket < 0 {
		t.homeSocket = sc.machine.SocketOf(c.id)
	}
	sc.setState(t, Running)
	t.dispatches++

	sc.setPenalty(t, c)
	if migrated {
		// Cache/TLB refill charged as extra effective time on this slice.
		t.remainingBase += sc.machine.Config().MigrationCost
	}
	t.startedAt = sc.sim.Now()
	slice := sc.effRemaining(t)
	if slice > quantum {
		slice = quantum
	}
	t.sliceEvent = sc.sim.Schedule(slice, c.tick)
}

func (sc *Scheduler) effRemaining(t *Thread) sim.Time {
	return sim.Time(int64(t.remainingBase) * t.penalty1024 / 1024)
}

// setPenalty computes t's effective-time multiplier at its current
// placement on core c: the NUMA-remote factor scaled by memory intensity,
// times the pipeline-sharing factor on CMT machines (busy sibling strands
// beyond the issue width divide the pipeline's throughput evenly). The
// penalty holds for one slice; re-arm points recompute it so sibling
// activity is sampled at slice granularity.
func (sc *Scheduler) setPenalty(t *Thread, c *coreState) {
	pen := 1.0
	if t.homeSocket >= 0 {
		pen = 1 + t.MemoryIntensity*(sc.machine.RemotePenalty(c.id, t.homeSocket)-1)
	}
	t.penalty1024 = int64(pen * 1024)
	if t.penalty1024 < 1024 {
		t.penalty1024 = 1024
	}
	if sc.siblings != nil {
		if busy := sc.busyOnPipeline(c.idx); busy > sc.issueWidth {
			t.penalty1024 = t.penalty1024 * int64(busy) / int64(sc.issueWidth)
		}
	}
}

// busyOnPipeline counts the units sharing core idx's pipeline (including
// idx itself) that are currently running a thread.
func (sc *Scheduler) busyOnPipeline(idx int) int {
	n := 0
	for _, s := range sc.siblings[idx] {
		if sc.cores[s].current != nil {
			n++
		}
	}
	return n
}

// CMT reports whether the machine exposes several hardware threads per
// pipeline, i.e. whether pipeline sharing is being modeled.
func (sc *Scheduler) CMT() bool { return sc.siblings != nil }

// PipelineLoad returns the total CoreLoad across every unit sharing core
// idx's pipeline. On non-CMT machines it equals CoreLoad(idx). Placements
// use it to spread threads across pipelines before doubling up strands.
func (sc *Scheduler) PipelineLoad(idx int) int {
	if sc.siblings == nil {
		return sc.CoreLoad(idx)
	}
	n := 0
	for _, s := range sc.siblings[idx] {
		n += sc.CoreLoad(s)
	}
	return n
}

// tick fires at slice expiry or segment completion for core idx.
func (sc *Scheduler) tick(idx int) {
	c := &sc.cores[idx]
	t := c.current
	t.sliceEvent = nil
	usedEff := sc.sim.Now() - t.startedAt
	t.cpuTime += usedEff
	t.vruntime += usedEff * sim.Time(DefaultWeight) / sim.Time(t.Weight)
	sc.machine.Core(c.id).BusyTime += usedEff
	// Ceiling division: rounding the base-time charge down would leave a
	// sliver of remainingBase that converts to zero effective time and
	// livelocks the core on 1ns slices.
	usedBase := sim.Time((int64(usedEff)*1024 + t.penalty1024 - 1) / t.penalty1024)
	t.remainingBase -= usedBase
	if t.remainingBase <= 0 {
		sc.completeSegment(t, idx)
		return
	}
	// Quantum expired with work left: preempt if someone eligible waits.
	if sc.eligibleCount(idx) > 0 {
		t.preemptions++
		c.current = nil
		sc.setState(t, Ready)
		c.queue = append(c.queue, t)
		sc.dispatch(idx)
		return
	}
	// Nobody waiting; run another slice in place. On CMT machines the
	// slice boundary re-samples sibling activity so the pipeline-sharing
	// penalty tracks strands that started or stopped since dispatch.
	if sc.siblings != nil {
		sc.setPenalty(t, c)
	}
	t.startedAt = sc.sim.Now()
	slice := sc.effRemaining(t)
	if slice > quantum {
		slice = quantum
	}
	t.sliceEvent = sc.sim.Schedule(slice, c.tick)
}

// completeSegment runs the done callback and either continues the thread
// in place (when done resubmitted) or frees the core.
func (sc *Scheduler) completeSegment(t *Thread, idx int) {
	c := &sc.cores[idx]
	t.remainingBase = 0
	done := t.done
	t.done = nil
	done()
	if t.continued {
		t.continued = false
		// A continuation keeps the core only while nobody eligible waits
		// on this core's queue; otherwise a CPU-bound thread chaining
		// segments would starve every other thread mapped here.
		if sc.eligibleCount(idx) > 0 {
			t.preemptions++
			c.current = nil
			sc.setState(t, Ready)
			c.queue = append(c.queue, t)
			sc.dispatch(idx)
			return
		}
		if sc.siblings != nil {
			sc.setPenalty(t, c)
		}
		t.startedAt = sc.sim.Now()
		slice := sc.effRemaining(t)
		if slice > quantum {
			slice = quantum
		}
		t.sliceEvent = sc.sim.Schedule(slice, c.tick)
		return
	}
	c.current = nil
	if t.state == Running {
		sc.setState(t, Idle)
	}
	sc.dispatch(idx)
}

// ContinuationBudget reports how much base CPU time thread t could
// consume, starting now, with zero externally observable interaction: no
// other simulation event firing, no run-queue activity on its core, and no
// placement-penalty arithmetic whose integer rounding depends on segment
// boundaries. The VM's op-run fusion uses it as the proof obligation for
// collapsing several interpreter ops into one summed segment — within the
// returned budget, a fused segment and the equivalent op-by-op segments
// are indistinguishable to every other component.
//
// The budget is nonzero only when t is on the continuation fast path
// (inside its own done callback, before resubmitting), it runs at unity
// placement penalty (base time == effective time, so slice rounding cannot
// diverge), and its core's run queue is empty (nothing to preempt it at a
// segment boundary). The window then extends to the kernel's next pending
// event, capped at max: no event means no new work, no stop-the-world
// request, and no wakeup can appear before the window closes, because
// every state change in the simulation is carried by an event.
//
// Note the boundary: a foreign event pending exactly at now+budget is
// safe. It was scheduled before the running callback, so it fires ahead of
// the fused segment's completion tick in both the fused and unfused
// executions — FIFO tie-breaking preserves creation order.
func (sc *Scheduler) ContinuationBudget(t *Thread, max sim.Time) sim.Time {
	if t.state != Running || t.sliceEvent != nil || t.done != nil || t.continued {
		return 0
	}
	// Weight must be the default for the same reason penalty must be
	// unity: vruntime accrues usedEff*DefaultWeight/Weight per segment
	// with integer division, so a fused segment (one floor of the sum)
	// and op-by-op segments (a sum of floors) would diverge otherwise.
	if t.penalty1024 != 1024 || t.Weight != DefaultWeight || t.coreIdx < 0 {
		return 0
	}
	c := &sc.cores[t.coreIdx]
	if c.current != t || len(c.queue) != 0 {
		return 0
	}
	next, ok := sc.sim.NextEventAt()
	if !ok {
		return max
	}
	if w := next - sc.sim.Now(); w < max {
		return w
	}
	return max
}

// Kick re-runs dispatch on every idle core. Callers use it after a change
// to external gating state (e.g. the VM's safepoint flag) that can make
// previously ineligible queued threads runnable — or gate them again, in
// which case dispatch re-arms the phase-boundary wakeup.
func (sc *Scheduler) Kick() {
	for i := range sc.cores {
		if sc.cores[i].current == nil {
			sc.dispatch(i)
		}
	}
}

// IdleTime returns the accumulated idle time of scheduler core idx (not
// the machine core ID).
func (sc *Scheduler) IdleTime(idx int) sim.Time {
	t := sc.idleTotal[idx]
	if sc.idleStart[idx] >= 0 {
		t += sc.sim.Now() - sc.idleStart[idx]
	}
	return t
}

// Utilization returns the fraction of core-time spent busy since start.
func (sc *Scheduler) Utilization() float64 {
	now := sc.sim.Now()
	if now == 0 {
		return 0
	}
	var idle sim.Time
	for i := range sc.cores {
		idle += sc.IdleTime(i)
	}
	total := now * sim.Time(len(sc.cores))
	return 1 - float64(idle)/float64(total)
}
