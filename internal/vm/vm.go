// Package vm assembles the simulated Java virtual machine: mutator threads
// executing workload units on the scheduled manycore machine, TLAB
// allocation against the generational heap, stop-the-world parallel
// collection with safepoints, monitor-based synchronization, and the
// Elephant-Tracks/DTrace-style instrumentation the paper's measurements
// rely on.
//
// One call to Run executes one benchmark configuration — the unit of the
// paper's methodology (§II-B): fixed workload, chosen thread count, cores
// equal to threads, heap at a multiple of the minimum requirement.
package vm

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"javasim/internal/gc"
	"javasim/internal/heap"
	"javasim/internal/lockprof"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/metrics"
	"javasim/internal/objmodel"
	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// Config selects the machine and JVM parameters for one run.
type Config struct {
	// Machine is the hardware model; zero value selects the paper's
	// 4-socket Opteron 6168 testbed.
	Machine machine.Config
	// MachineName selects a registered machine model by name
	// ("opteron-6168", "sparc-t3-4", "opteron-6168-bw",
	// "opteron-6168-flat", or a user registration); when set it overrides
	// Machine with the model's configuration and installs the model's
	// topology hooks. Empty with a zero Machine resolves to the default
	// model; empty with an explicit Machine keeps that anonymous
	// configuration.
	MachineName string
	// Threads is the mutator thread count. Zero defaults to 4.
	Threads int
	// Cores is the number of enabled cores. Zero follows the paper's
	// methodology: cores = threads, capped at the machine size.
	Cores int
	// HeapFactor multiplies the workload's minimum heap requirement; the
	// paper uses 3x. Zero defaults to 3.
	HeapFactor float64
	// NewRatio overrides the heap's old:young size ratio (HotSpot default
	// 2: the young generation is one third of the heap). Zero keeps the
	// default.
	NewRatio int
	// SurvivorRatio overrides the heap's eden:survivor ratio (HotSpot
	// default 8). Zero keeps the default.
	SurvivorRatio int
	// Compartments splits eden into per-thread-group slices (future-work
	// (b)); zero or one means one shared eden — except that the
	// "compartment" GC policy defaults an *unset* (zero) count to one
	// slice per NUMA socket, while an explicit 1 still requests the
	// single shared eden.
	Compartments int
	// GC configures the collector; GC.Workers zero selects the HotSpot
	// heuristic for the enabled core count.
	GC gc.Config
	// GCPolicy selects the collection discipline by gc registry name
	// ("stw-serial", "stw-parallel", "concurrent", "compartment", or a
	// user registration); empty means stw-serial, the paper's baseline.
	GCPolicy string
	// Sched configures the scheduler, including phase-bias (future-work
	// (a); a zero Sched.Bias.PhaseLength with Groups > 1 means 2ms) and
	// the placement discipline (Sched.Placement registry name; empty
	// means affinity).
	Sched sched.Config
	// LockPolicy selects the contended-monitor discipline by locks
	// registry name ("fifo", "barging", "spin-then-park", "restricted",
	// or a user registration); empty means fifo, the paper's baseline.
	LockPolicy string
	// Seed drives all stochastic choices; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64
	// Iterations repeats the workload inside the same JVM (DaCapo harness
	// style): heap state persists, application state resets per
	// iteration. Zero means one iteration.
	Iterations int
	// Pretenuring enables the allocation-site pretenuring learner:
	// sites observed to produce long-lived objects allocate directly in
	// the old generation, sidestepping the survivor copying that the
	// paper shows inflating GC time at high thread counts.
	Pretenuring bool
	// TraceSink, when non-nil, receives the Elephant-Tracks-style event
	// stream.
	TraceSink trace.Sink
	// LockProfiler, when non-nil, observes every monitor event.
	LockProfiler *lockprof.Profiler
	// Traffic selects the open-system arrival model: requests injected
	// at a rate and served by the mutator pool, instead of the default
	// closed loop where N threads iterate over a fixed work pool. The
	// zero value (and the "closed" process) keeps the closed loop.
	// Open-system runs require Iterations <= 1 and a phase-free
	// workload.
	Traffic traffic.Config
}

// Canonical returns the configuration with every zero value resolved to
// its default — the form two configs must be compared in to decide
// whether they describe the same run (the engine's cache key is built
// from it).
func (c Config) Canonical() Config { return c.withDefaults() }

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MachineName == "" && c.Machine.Sockets == 0 {
		c.MachineName = machine.DefaultModel
	}
	if c.MachineName != "" {
		// A registered name overrides any inline config so the label and
		// the hardware can never disagree. Unknown names keep the inline
		// config (or the default) here and are rejected by RunContext.
		if mdl, err := machine.Models.Get(c.MachineName); err == nil {
			c.Machine = mdl.Config()
		} else if c.Machine.Sockets == 0 {
			c.Machine = machine.Opteron6168()
		}
	}
	c.Machine = c.Machine.WithDefaults()
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Cores == 0 {
		c.Cores = c.Threads
		if max := c.Machine.TotalCores(); c.Cores > max {
			c.Cores = max
		}
	}
	hc := heap.Config{Factor: c.HeapFactor, NewRatio: c.NewRatio, SurvivorRatio: c.SurvivorRatio}.WithDefaults()
	c.HeapFactor, c.NewRatio, c.SurvivorRatio = hc.Factor, hc.NewRatio, hc.SurvivorRatio
	// Compartments stays 0 when unset: the GC policy's Layout may default
	// it (compartment picks one slice per socket), while an explicit 1
	// requests the single shared eden. RunContext clamps the laid-out
	// count to >= 1.
	if c.Compartments < 0 {
		c.Compartments = 0
	}
	if c.GC.Workers == 0 {
		c.GC.Workers = gc.DefaultWorkers(c.Cores)
	}
	c.GC = c.GC.WithDefaults()
	if c.Iterations < 1 {
		c.Iterations = 1
	}
	if c.LockPolicy == "" {
		c.LockPolicy = locks.PolicyFIFO
	}
	if c.GCPolicy == "" {
		c.GCPolicy = gc.PolicyStwSerial
	}
	if c.Sched.Placement == "" {
		c.Sched.Placement = sched.PlacementAffinity
	}
	if c.Sched.Bias.Groups > 1 && c.Sched.Bias.PhaseLength <= 0 {
		c.Sched.Bias.PhaseLength = 2 * sim.Millisecond
	}
	c.Traffic = c.Traffic.Canonical()
	return c
}

// Result is the full measurement record of one run — everything the
// paper's figures draw on.
type Result struct {
	Workload string
	Threads  int
	Cores    int

	// LockPolicy, Placement, and GCPolicy are the resolved policy names
	// the run executed under, so reports can label ablation series.
	LockPolicy string
	Placement  string
	GCPolicy   string
	// Machine is the registered machine-model name the run executed on;
	// empty for anonymous inline machine configurations.
	Machine string

	// TotalTime is the virtual wall-clock duration of the run; it splits
	// exactly into MutatorTime and GCTime (stop-the-world, including
	// time-to-safepoint).
	TotalTime   sim.Time
	MutatorTime sim.Time
	GCTime      sim.Time
	// SafepointTime is the time-to-safepoint portion of GCTime.
	SafepointTime sim.Time

	// GCStats counts and times the run's pauses by kind; its
	// Collections, TotalTime and MaxPause summarize every pause, so a
	// result carries no per-pause log (a TraceSink's GCStart/GCEnd
	// events carry each pause).
	GCStats   gc.Stats
	HeapStats heap.Stats

	// GCPhases splits stop-the-world pause time into its phases (fixed
	// setup, live-object scanning, evacuation/compaction), summed across
	// every pause — the per-phase GC CPU that distinguishes a
	// coordination-bound collector (setup-heavy) from a copy-bound one.
	GCPhases gc.Breakdown

	// LockAcquisitions and LockContentions are the Figure 1a/1b counters,
	// aggregated over every monitor in the VM.
	LockAcquisitions int64
	LockContentions  int64

	// Lifespans is the distribution of object lifespans in
	// allocation-clock bytes (Figure 1c/1d).
	Lifespans *metrics.Histogram

	// ConcGCCPUTime is processor time consumed by concurrent GC threads
	// (under a policy that collects the old generation concurrently); it
	// shows up as mutator-time dilation, not as pause time. ConcCycles
	// counts completed concurrent cycles.
	ConcGCCPUTime sim.Time
	ConcCycles    int64

	ObjectsAllocated int64
	AllocatedBytes   int64

	// MemBWStall is total thread time lost waiting on saturated per-socket
	// memory channels; MemTraffic is total allocation and GC copy traffic
	// billed against them. Both stay zero on machines without a
	// SocketBandwidth ceiling.
	MemBWStall sim.Time
	MemTraffic int64

	// Iterations holds per-iteration timings for multi-iteration runs
	// (one entry for single-iteration runs).
	Iterations []IterationStats

	// PerThreadUnits is the §III work-distribution table: units executed
	// by each mutator thread, summed across iterations.
	PerThreadUnits []int64
	// PerThreadCPU, PerThreadReadyWait, and PerThreadBlocked expose
	// scheduling behavior; blocked time covers lock parks, barriers, and
	// safepoints (a spin-then-park spin is CPU, not blocked time).
	PerThreadCPU       []sim.Time
	PerThreadReadyWait []sim.Time
	PerThreadBlocked   []sim.Time

	Utilization float64

	// Traffic holds the open-system measurements (per-request latency,
	// queue behavior, offered/completed/timed-out accounting) for runs
	// configured with an open arrival process; nil for closed-loop runs.
	Traffic *traffic.Stats
}

// GCShare returns GC time as a fraction of total time.
func (r *Result) GCShare() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	return float64(r.GCTime) / float64(r.TotalTime)
}

// mutator states; transitions are driven entirely by scheduler callbacks.
type mutatorState uint8

const (
	stRunning  mutatorState = iota // executing unit ops (on core or in queue)
	stLockWait                     // parked on a monitor entry queue
	stBarrier                      // parked at a phase barrier
	stGCWait                       // parked for a stop-the-world collection
	stDone                         // all work finished, thread terminated
	stIdleOpen                     // open-system server parked awaiting a request
)

type mutator struct {
	idx         int
	th          *sched.Thread
	state       mutatorState
	compartment int

	tlab heap.TLAB

	// Current unit interpretation state.
	unit  workload.Unit
	opIdx int

	// stepFn and fetchFn are the pre-bound continuations (set once at
	// construction) the hot path hands to the scheduler and the safepoint
	// machinery, so advancing a unit never captures a fresh closure.
	stepFn  func()
	fetchFn func()

	// resume continues the mutator after a lock handoff grants it the
	// monitor it blocked on, or after a stop-the-world resume.
	resume func()

	// lockRetry re-attempts a parked acquisition after a competitive
	// wakeup (barging): the monitor was freed, not handed over, and the
	// thread must race for it again.
	lockRetry func()

	// Acquisition-in-flight state consumed by the pre-bound lock-path
	// continuations below. A mutator drives one acquisition at a time, so
	// per-mutator fields replace per-call closure captures (the VM's
	// dominant allocation source before PR 10). See acquireThen.
	acqMon   *locks.Monitor // monitor being acquired
	acqOwned func()         // continuation once acqMon is held
	atMon    *locks.Monitor // acquireThen: monitor to release after the hold
	atHold   sim.Time       // acquireThen: critical-section length
	atThen   func()         // acquireThen: continuation after release

	// Pre-bound continuations for the lock, work-fetch, and barrier
	// paths, set once at construction next to stepFn/fetchFn.
	atOwnedFn    func()
	atReleaseFn  func()
	spinRetryFn  func()
	lockResumeFn func()
	lockRetryFn  func()
	takeUnitFn   func()
	openTakeFn   func()
	barPollFn    func()
	barArriveFn  func()
	barSeqFn     func()
	barPollsLeft int

	// parkedContended records whether the park in progress fired the
	// contended-enter probe; the wake that resolves it charges the
	// workload's ContentionCost when set (see releaseMonitor).
	parkedContended bool

	// gcRetries counts consecutive allocation failures; repeated failure
	// after collections is an OutOfMemoryError.
	gcRetries int

	// Open-system state: the arrival time of the request being served,
	// and whether this server was woken for a dispatch it has not yet
	// consumed (see openState.committed).
	reqArrival sim.Time
	openWoken  bool

	// Death scheduling. allocRing buckets objects dying after N more own
	// allocations; unitRing buckets objects dying at future unit ends.
	allocRing  [16][]objmodel.ID
	allocCount int64
	unitRing   [64][]objmodel.ID
	unitCount  int64
}

// vm is the assembled runtime for one run.
type vm struct {
	cfg  Config
	spec workload.Spec

	sim   *sim.Simulator
	mach  *machine.Machine
	sched *sched.Scheduler
	heap  *heap.Heap
	reg   *objmodel.Registry
	gc    *gc.Collector
	locks *locks.Table
	run   *workload.Run

	mutators []*mutator
	helpers  []*sched.Thread

	// compOf maps mutator index -> heap compartment; nil means the
	// default round-robin i % Compartments. The compartment GC policy
	// fills it so thread groups share the compartment homed on their
	// cores' socket.
	compOf []int

	queueLock   *locks.Monitor
	barrierLock *locks.Monitor
	shared      []*locks.Monitor

	// Phase-barrier state.
	phaseUnits   int
	currentPhase int
	barArrived   int
	seqPerPhase  sim.Time

	// Stop-the-world state. With a compartmentalized heap, a minor
	// collection stops only the owning compartment's mutators (stwGlobal
	// false); a full collection — or any collection on an
	// uncompartmentalized heap — stops everyone.
	stwPending    bool
	stwCollecting bool // the pause itself is in progress
	stwGlobal     bool
	stwComp       int
	stwRequester  *mutator
	stwStart      sim.Time
	stwWantFull   bool  // a forced full collection is required (AllocOld failed)
	gcQueue       []int // compartments with pending collection requests
	runningCount  int   // mutators in stRunning
	aliveCount    int   // mutators not in stDone
	cms           cmsDriver
	pret          pretenurer
	gcTime        sim.Time
	safepointTime sim.Time

	// Iteration bookkeeping (Config.Iterations > 1).
	iteration  int
	iterStats  []IterationStats
	iterStart  sim.Time
	iterGCTime sim.Time
	iterPauses int64
	unitsAccum []int64

	// openSt is the open-system driver state; nil for closed-loop runs.
	openSt *openState

	// snap is the warm-start snapshot the run is replaying from; nil for
	// cold runs. Iteration i attaches snap's i-th tape.
	snap *Snapshot

	// traceSeq and traceThread map a registry slot to its object's
	// allocation number and allocating thread; filled only with a
	// TraceSink attached.
	traceSeq    []uint32
	traceThread []int32

	lifespans *metrics.Histogram
	finished  bool
	endTime   sim.Time
	runErr    error
	guardEv   *sim.Event

	// Fusion state (see fuse.go). fuseOK caches the per-run eligibility
	// gate; tlabSize caches the heap's TLAB size for the fusion scan.
	fuseOK   bool
	tlabSize int64

	// spanned is the number of NUMA sockets the enabled units cover; GC
	// copy traffic on bandwidth-limited machines is billed across them.
	spanned int
}

// Run executes one benchmark under the given configuration and returns the
// measurements. It is RunContext with a background context.
func Run(spec workload.Spec, cfg Config) (*Result, error) {
	return RunContext(context.Background(), spec, cfg)
}

// cancelCheckEvents is how many simulation events fire between context
// checks in RunContext. Events are sub-microsecond of host time, so this
// keeps cancellation latency well under a millisecond while making the
// per-event overhead unmeasurable.
const cancelCheckEvents = 4096

// RunContext executes one benchmark under the given configuration,
// checking ctx at checkpoints inside the simulator's event loop. A
// canceled context aborts the run promptly and returns an error wrapping
// ctx.Err(); the partial simulation state is discarded.
func RunContext(ctx context.Context, spec workload.Spec, cfg Config) (*Result, error) {
	return runContext(ctx, spec, cfg, true, maxVirtualTime)
}

// maxVirtualTime is the simulated-time budget of a run; exceeding it
// means a model bug (livelock), not a slow workload.
const maxVirtualTime = 300 * sim.Second

// runContext is RunContext with op-run fusion and the virtual-time budget
// selectable. Fusion is invisible in results, so only the fusion
// differential tests pass fuse false, to compare against the op-by-op
// path; only the guard's own test passes a budget other than
// maxVirtualTime.
func runContext(ctx context.Context, spec workload.Spec, cfg Config, fuse bool, budget sim.Time) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Resolve the pluggable policies up front so an unknown name is a
	// configuration error, not a panic mid-simulation. The placement is
	// only checked here — sched.New resolves its own instance.
	newPolicy, err := locks.Policies.Get(cfg.LockPolicy)
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	if err := sched.Placements.Validate(cfg.Sched.Placement); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	newGCPolicy, err := gc.Policies.Get(cfg.GCPolicy)
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	policy, gcPolicy := newPolicy(), newGCPolicy()
	if err := cfg.Traffic.Validate(); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	var arrivalProc traffic.Process
	if cfg.Traffic.Open() {
		if cfg.Iterations > 1 {
			return nil, fmt.Errorf("vm: open-system traffic is incompatible with Iterations = %d — the arrival process, not the harness, governs repetition", cfg.Iterations)
		}
		if spec.Phases > 0 {
			return nil, fmt.Errorf("vm: open-system traffic needs a phase-free workload, but %s has %d barrier phases", spec.Name, spec.Phases)
		}
		arrivalProc, err = traffic.NewProcess(cfg.Traffic.Process, cfg.Traffic)
		if err != nil {
			return nil, fmt.Errorf("vm: %w", err)
		}
	}
	run, err := workload.NewRun(spec, cfg.Threads, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The VM consumes each unit fully before its thread takes the next,
	// so per-thread op-buffer recycling is safe and saves the per-unit
	// ops allocation.
	run.ReuseUnitBuffers()
	var snap *Snapshot
	if s := SnapshotFrom(ctx); s.Matches(spec, cfg) {
		snap = s
		if run.AttachTape(s.tapes[0]) && snapshotObserver != nil {
			snapshotObserver()
		}
	}

	var mach *machine.Machine
	if cfg.MachineName != "" {
		mdl, merr := machine.Models.Get(cfg.MachineName)
		if merr != nil {
			return nil, fmt.Errorf("vm: %w", merr)
		}
		mach, merr = machine.NewFromModel(mdl)
		if merr != nil {
			return nil, fmt.Errorf("vm: %w", merr)
		}
	} else if mach, err = machine.New(cfg.Machine); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	if err := mach.EnableCores(cfg.Cores); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}

	// Let the GC policy shape the heap: compartment count and NUMA region
	// homes. Units are enabled socket-major, so the spanned socket count
	// is a ceiling division over units (hardware threads) per socket.
	unitsPerSocket := cfg.Machine.UnitsPerSocket()
	spanned := (cfg.Cores + unitsPerSocket - 1) / unitsPerSocket
	if spanned > cfg.Machine.Sockets {
		spanned = cfg.Machine.Sockets
	}
	if spanned < 1 {
		spanned = 1
	}
	layout := gcPolicy.Layout(gc.LayoutRequest{
		Compartments:   cfg.Compartments,
		Cores:          cfg.Cores,
		Sockets:        spanned,
		CoresPerSocket: unitsPerSocket,
	})
	if layout.Compartments < 1 {
		layout.Compartments = 1
	}
	if layout.HomeSockets != nil && len(layout.HomeSockets) != layout.Compartments {
		return nil, fmt.Errorf("vm: gc policy %q laid out %d home sockets for %d compartments",
			cfg.GCPolicy, len(layout.HomeSockets), layout.Compartments)
	}
	cfg.Compartments = layout.Compartments

	s := sim.New()
	scheduler := sched.New(s, mach, cfg.Sched)

	// Heap sizing per the paper: Factor x the workload's minimum heap.
	// TLABs adapt to the eden share per thread, as HotSpot does; with
	// compartments enabled, each eden slice must accommodate every thread
	// mapped to it, so the TLAB shrinks accordingly.
	edenEstimate := int64(float64(spec.MinHeapBytes())*cfg.HeapFactor) / 3 * 8 / 10
	threadsPerComp := (cfg.Threads + cfg.Compartments - 1) / cfg.Compartments
	slice := edenEstimate / int64(cfg.Compartments)
	tlab := slice / int64(threadsPerComp*8)
	if tlab < 1<<10 {
		tlab = 1 << 10
	}
	if tlab > 64<<10 {
		tlab = 64 << 10
	}
	hp := heap.New(heap.Config{
		MinHeap:       spec.MinHeapBytes(),
		Factor:        cfg.HeapFactor,
		NewRatio:      cfg.NewRatio,
		SurvivorRatio: cfg.SurvivorRatio,
		TLABSize:      tlab,
		Compartments:  cfg.Compartments,
	})

	reg := objmodel.NewRegistry()
	collector := gc.NewWithPolicy(gcPolicy, cfg.GC, hp, reg)
	if layout.HomeSockets != nil {
		collector.SetCopyFactors(numaCopyFactors(mach, spanned, layout))
	}

	var lockListener locks.Listener
	if cfg.LockProfiler != nil {
		lockListener = cfg.LockProfiler
	}
	table := locks.NewTableWithPolicy(policy, lockListener)

	v := &vm{
		cfg: cfg, spec: spec,
		sim: s, mach: mach, sched: scheduler,
		heap: hp, reg: reg, gc: collector, locks: table, run: run,
		lifespans: metrics.NewHistogram(spec.Name + "-lifespans"),
		fuseOK:    fuse && cfg.TraceSink == nil,
		tlabSize:  hp.Config().TLABSize,
		spanned:   spanned,
		snap:      snap,
	}
	if layout.HomeSockets != nil {
		v.compOf = numaCompartmentMap(mach, cfg.Threads, cfg.Cores, layout)
	}
	// Phase-bias gating yields to safepoint requests so stopped-world
	// latency stays bounded by segment lengths, not phase lengths.
	scheduler.SetGateOverride(func() bool { return v.stwPending })

	if cfg.Pretenuring {
		v.pret.enabled = true
		v.pret.longLifespan = hp.EdenSize()
		collector.SetPromoteHook(func(id objmodel.ID) { v.pret.onPromote(reg.Get(id).Site) })
	}

	v.setupLocks()
	v.setupPhases()
	if arrivalProc != nil {
		// A nil process from an open-named factory (the "closed"
		// adapter's behavior) falls through to the closed loop.
		v.setupOpen(arrivalProc)
	}
	v.setupMutators()
	v.setupHelpers()
	v.setupCMS()

	// Abort guard: a run exceeding the virtual budget indicates a model
	// bug (livelock); surface it as an error rather than spinning. The
	// guard is canceled at run end so it does not drag the clock forward.
	v.guardEv = s.At(budget, func() {
		if !v.finished {
			v.runErr = fmt.Errorf("vm: %s with %d threads exceeded %v virtual time",
				spec.Name, cfg.Threads, budget)
			s.Stop()
		}
	})

	if _, err := s.RunInterruptible(cancelCheckEvents, ctx.Err); err != nil {
		return nil, fmt.Errorf("vm: %s with %d threads canceled at %v: %w",
			spec.Name, cfg.Threads, s.Now(), err)
	}
	if v.runErr != nil {
		return nil, v.runErr
	}
	if !v.finished {
		return nil, fmt.Errorf("vm: %s run stalled — simulation drained with %d mutators unfinished",
			spec.Name, v.aliveCount)
	}
	if registryObserver != nil {
		registryObserver(reg, collector)
	}
	return v.result(), nil
}

// registryObserver, when non-nil, receives every finished run's object
// registry and collector — a test hook (mirroring fuseObserver) so tests
// can check slot recycling against the collector's lists. Never set
// outside tests.
var registryObserver func(*objmodel.Registry, *gc.Collector)

func (v *vm) setupLocks() {
	if v.spec.Distribution == workload.Queue {
		v.queueLock = v.locks.Create(v.spec.Name + ".workQueue")
	}
	v.barrierLock = v.locks.Create(v.spec.Name + ".phaseBarrier")
	for i := 0; i < v.spec.SharedLocks; i++ {
		v.shared = append(v.shared, v.locks.Create(fmt.Sprintf("%s.shared%d", v.spec.Name, i)))
	}
}

func (v *vm) setupPhases() {
	if v.spec.Phases > 0 {
		v.phaseUnits = v.spec.TotalUnits / v.spec.Phases
		if v.phaseUnits < 1 {
			v.phaseUnits = 1
		}
		totalCompute := float64(v.spec.TotalUnits) * float64(v.spec.UnitCompute)
		sf := v.spec.SequentialFraction
		if sf > 0 {
			v.seqPerPhase = sim.Time(totalCompute * sf / (1 - sf) / float64(v.spec.Phases))
		}
	}
}

func (v *vm) setupMutators() {
	open := v.openSt != nil
	v.mutators = make([]*mutator, v.cfg.Threads)
	v.unitsAccum = make([]int64, v.cfg.Threads)
	for i := range v.mutators {
		comp := i % v.heap.Compartments()
		if v.compOf != nil {
			comp = v.compOf[i]
		}
		m := &mutator{
			idx:         i,
			compartment: comp,
			state:       stRunning,
		}
		m.stepFn = func() { v.step(m) }
		m.fetchFn = func() { v.fetchWork(m) }
		if open {
			m.state = stIdleOpen
			m.fetchFn = func() { v.openFetch(m) }
		}
		m.atOwnedFn = func() { v.atOwned(m) }
		m.atReleaseFn = func() { v.atRelease(m) }
		m.spinRetryFn = func() { v.attemptAcquire(m, true) }
		m.lockResumeFn = func() { v.lockResume(m) }
		m.lockRetryFn = func() { v.lockRetryWake(m) }
		m.takeUnitFn = func() { v.takeUnit(m) }
		m.openTakeFn = func() { v.openTake(m) }
		m.barPollFn = func() { v.barrierPollLoop(m) }
		m.barArriveFn = func() { v.barrierArrived(m) }
		m.barSeqFn = func() { v.releaseBarrier(m) }
		m.th = v.sched.NewThread(fmt.Sprintf("worker-%d", i), sched.DefaultWeight)
		m.th.MemoryIntensity = v.spec.MemoryIntensity
		if v.cfg.Sched.Bias.Groups > 1 {
			m.th.Group = i % v.cfg.Sched.Bias.Groups
		}
		v.mutators[i] = m
		if !open {
			v.runningCount++
		}
		v.aliveCount++
	}
	for _, m := range v.mutators {
		v.emitTrace(trace.Event{Kind: trace.ThreadStart, Time: 0, Thread: int32(m.idx)})
		if open {
			// Servers start parked on the idle stack; arrivals wake them.
			v.openSt.idle = append(v.openSt.idle, m)
			v.sched.Block(m.th)
		} else {
			v.sched.Submit(m.th, 0, m.fetchFn)
		}
	}
}

// Each JVM helper thread computes for helperBurst every helperPeriod.
const (
	helperPeriod = 5 * sim.Millisecond
	helperBurst  = 100 * sim.Microsecond
)

// setupHelpers spawns the JVM background threads (JIT compiler, profiler).
// They are low-weight and periodic: real competitors for cores, but not
// workload executors.
func (v *vm) setupHelpers() {
	for i := 0; i < v.spec.HelperThreads; i++ {
		th := v.sched.NewThread(fmt.Sprintf("jvm-helper-%d", i), sched.DefaultWeight/8)
		v.helpers = append(v.helpers, th)
		var cycle func()
		cycle = func() {
			if v.finished {
				return
			}
			v.sched.Submit(th, helperBurst, func() {
				if v.finished {
					return
				}
				v.sim.Schedule(helperPeriod, cycle)
			})
		}
		// Stagger helper wakeups so they do not thunder together.
		v.sim.Schedule(sim.Time(i+1)*helperPeriod/sim.Time(v.spec.HelperThreads+1), cycle)
	}
}

func (v *vm) emitTrace(ev trace.Event) {
	if v.cfg.TraceSink != nil {
		v.cfg.TraceSink.Emit(ev)
	}
}

// traceAlloc emits an allocation event. Registry slots are recycled, so
// the trace names objects by their dense allocation number instead,
// remembered per slot with the allocating thread for the death event.
func (v *vm) traceAlloc(id objmodel.ID, m *mutator, size int32) {
	seq := uint32(v.reg.Count() - 1)
	if int(id) == len(v.traceSeq) {
		v.traceSeq = append(v.traceSeq, seq)
		v.traceThread = append(v.traceThread, int32(m.idx))
	} else {
		v.traceSeq[id], v.traceThread[id] = seq, int32(m.idx)
	}
	v.emitTrace(trace.Event{
		Kind: trace.Alloc, Time: v.sim.Now(), Thread: int32(m.idx),
		Object: seq, Size: size, Clock: v.reg.Clock(),
	})
}

// kill retires an object: records its death against the allocation clock,
// feeds the lifespan histogram, and emits the trace event.
func (v *vm) kill(id objmodel.ID) {
	lifespan := v.reg.Kill(id)
	v.lifespans.Add(lifespan)
	if v.pret.enabled {
		v.pret.onDeath(v.reg.Get(id).Site, lifespan)
	}
	if v.cfg.TraceSink != nil {
		v.emitTrace(trace.Event{
			Kind: trace.Death, Time: v.sim.Now(), Thread: v.traceThread[id],
			Object: v.traceSeq[id], Clock: v.reg.Clock(),
		})
	}
}

// retireLive kills every live object, as at program exit or an
// iteration boundary. A kill's effects on the results — the lifespan
// histogram, the pretenure counters, the registry totals — commute, so
// the objects go in slot order; only trace Death events show the order,
// and with a sink attached they follow allocation order.
func (v *vm) retireLive() {
	if v.cfg.TraceSink == nil {
		v.reg.ForEachLive(func(id objmodel.ID, _ *objmodel.Object) { v.kill(id) })
		return
	}
	live := make([]objmodel.ID, 0, v.reg.LiveCount())
	v.reg.ForEachLive(func(id objmodel.ID, _ *objmodel.Object) { live = append(live, id) })
	slices.SortFunc(live, func(a, b objmodel.ID) int { return cmp.Compare(v.traceSeq[a], v.traceSeq[b]) })
	for _, id := range live {
		v.kill(id)
	}
}

// result assembles the final measurement record.
func (v *vm) result() *Result {
	res := &Result{
		Workload:         v.spec.Name,
		Threads:          v.cfg.Threads,
		Cores:            v.cfg.Cores,
		LockPolicy:       v.cfg.LockPolicy,
		Placement:        v.cfg.Sched.Placement,
		GCPolicy:         v.cfg.GCPolicy,
		Machine:          v.cfg.MachineName,
		TotalTime:        v.endTime,
		GCTime:           v.gcTime,
		MutatorTime:      v.endTime - v.gcTime,
		SafepointTime:    v.safepointTime,
		GCStats:          v.gc.Stats(),
		GCPhases:         v.gc.Phases(),
		HeapStats:        v.heap.Stats(),
		LockAcquisitions: v.locks.TotalAcquisitions(),
		LockContentions:  v.locks.TotalContentions(),
		Lifespans:        v.lifespans,
		ObjectsAllocated: v.reg.Count(),
		AllocatedBytes:   v.reg.Clock(),
		ConcGCCPUTime:    v.cms.cpuTime,
		ConcCycles:       v.cms.cycles,
		MemBWStall:       v.mach.BandwidthStall(),
		MemTraffic:       v.mach.TrafficBytes(),
		Iterations:       v.iterStats,
	}
	units := v.run.UnitsTaken()
	for i := range units {
		units[i] += v.unitsAccum[i]
	}
	res.PerThreadUnits = units
	// Utilization over the run window [0, endTime]: the simulator's final
	// clock includes post-run helper drainage, so it is not the divisor.
	if v.endTime > 0 && v.cfg.Cores > 0 {
		var busy sim.Time
		for _, c := range v.mach.EnabledCores() {
			busy += v.mach.Core(c).BusyTime
		}
		res.Utilization = float64(busy) / float64(v.endTime*sim.Time(v.cfg.Cores))
	}
	for _, m := range v.mutators {
		res.PerThreadCPU = append(res.PerThreadCPU, m.th.CPUTime())
		res.PerThreadReadyWait = append(res.PerThreadReadyWait, m.th.ReadyWait())
		res.PerThreadBlocked = append(res.PerThreadBlocked, m.th.BlockedTime())
	}
	if v.openSt != nil {
		res.Traffic = v.openSt.openResult(v.endTime)
	}
	return res
}
