// Package javasim reproduces "Factors Affecting Scalability of
// Multithreaded Java Applications on Manycore Systems" (Qian, Li,
// Srisa-an, Jiang, Seth — ISPASS 2015) as a deterministic discrete-event
// simulation, and exposes the experiment framework that regenerates every
// figure and table in the paper.
//
// The simulated system is a 48-core four-socket NUMA machine running a
// HotSpot-style JVM: an OS scheduler with per-core run queues, a
// generational heap with TLAB allocation, a stop-the-world parallel
// collector with safepoints, Java object monitors, and models of six
// DaCapo-9.12 benchmarks (sunflow, lusearch, xalan, h2, eclipse, jython).
// Object lifespans are measured in allocation-clock bytes exactly as the
// paper's Elephant Tracks methodology defines them, and lock behavior is
// profiled the way the paper's DTrace scripts counted acquisitions and
// contention events.
//
// # The Engine
//
// All simulation dispatches through an Engine: a long-lived object owning
// a bounded worker pool and a memoizing result cache, safe for any number
// of concurrent callers. Every entry point takes a context, so large
// batches can be canceled mid-run, and observers stream progress events
// as runs, sweep points, and figures complete.
//
//	eng := javasim.NewEngine(
//		javasim.WithParallelism(8),
//		javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
//			log.Println(ev)
//		})),
//	)
//	spec, _ := javasim.LookupWorkload("xalan")
//	res, err := eng.Run(ctx, spec, javasim.Config{Threads: 8, Seed: 42})
//	if err != nil { ... }
//	fmt.Println(res.TotalTime, res.GCTime, res.Lifespans.FractionBelow(1024))
//
// # Reproducing the paper
//
//	pr, err := eng.RunPlan(ctx, javasim.PaperPlan(javasim.ExperimentConfig{}))
//	if err != nil { ... }
//	tables := pr.Reports // Fig 1a-1d, Fig 2, all tables
//
// Plan.Select narrows the plan to single artifacts, simulating only the
// sweeps they read. StudyPlan is the design-choice studies as a second
// built-in plan.
//
// # Workloads and declarative plans
//
// Every workload model lives in a registry: the six DaCapo benchmarks and
// the bundled extensions are pre-registered, custom models join via
// RegisterWorkload, and LookupWorkload resolves any of them by name.
// Experiments are declared as data: a Scenario names a workload (by
// registry name or inline Spec), thread counts, config overrides, and
// repeats; a Plan bundles scenarios with cross-scenario reports; and
// Engine.RunPlan executes the whole matrix through the pool and cache.
// Plans round-trip through JSON (LoadPlan / Plan.WriteJSON), so entire
// experiment matrices live in files and run with cmd/javasim -plan. The
// paper's own figure suite is the built-in PaperPlan, and the
// design-choice studies the built-in StudyPlan.
//
// # Pluggable policies
//
// The mechanisms the paper treats as fixed JVM behavior are swappable
// policies resolved from string-keyed registries: Config.LockPolicy
// selects the contended-monitor discipline ("fifo" — the paper's
// baseline — "barging", "spin-then-park", or "restricted"),
// Config.Sched.Placement selects the scheduler's run-queue placement
// ("affinity", "round-robin", or "least-loaded"), and Config.GCPolicy
// selects the collection discipline ("stw-serial" — the paper's
// throughput collector — "stw-parallel", "concurrent", or
// "compartment"). Plans select the same names per scenario, so one plan
// A/Bs whole disciplines, and custom policies join through
// RegisterLockPolicy / RegisterPlacement / RegisterGCPolicy.
//
// The hardware itself is pluggable the same way: Config.MachineName (or
// a plan's Machine field) selects a registered machine model —
// "opteron-6168", the paper's testbed and the default; "sparc-t3-4", a
// 512-hardware-thread CMT system whose strands share per-core issue
// pipelines; "opteron-6168-bw", the testbed with a finite per-socket
// memory-bandwidth budget; or "opteron-6168-flat", the testbed without
// remote-access or migration costs — and custom machines join through
// RegisterMachine.
//
// Runs are deterministic: the same Config.Seed reproduces a run
// bit-for-bit, whether points execute sequentially or across the worker
// pool. Identical runs requested twice (by figures, studies, or
// concurrent callers) simulate once and share the memoized Result. See
// README.md for the quickstart, docs/architecture.md for the system
// map, docs/paper.md for the paper-to-code mapping, and
// docs/extending.md for custom registrations and the migration table
// from the old free-function API.
package javasim

import (
	"context"
	"errors"
	"io"

	"javasim/internal/core"
	"javasim/internal/fit"
	"javasim/internal/gc"
	"javasim/internal/lockprof"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/metrics"
	"javasim/internal/report"
	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/store"
	"javasim/internal/trace"
	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// Core run types.
type (
	// Config selects machine and JVM parameters for one run; the zero
	// value reproduces the paper's defaults (Opteron 6168, cores =
	// threads, 3x min heap).
	Config = vm.Config
	// Result is the full measurement record of one run.
	Result = vm.Result
	// Spec describes one benchmark workload.
	Spec = workload.Spec
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Rand is the deterministic simulation RNG handed to custom
	// arrival processes; all process randomness must come from it so
	// equal seeds reproduce equal traces.
	Rand = sim.Rand
)

// Engine types.
type (
	// Engine owns a bounded simulation worker pool and a memoizing result
	// cache; all runs, sweeps, and plans dispatch through it. Safe for
	// concurrent use.
	Engine = core.Engine
	// Option configures an Engine at construction.
	Option = core.Option
	// Observer receives engine progress events; implementations must be
	// safe for concurrent use.
	Observer = core.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = core.ObserverFunc
	// Event is one progress notification from an engine.
	Event = core.Event
	// EventKind classifies a progress event.
	EventKind = core.EventKind
	// CacheStats breaks the engine's cache behavior down by tier:
	// memory hits, disk hits, singleflight shares, and misses.
	CacheStats = core.CacheStats
	// ResultStore is the persistent second cache tier behind the
	// engine's in-memory LRU, keyed by Fingerprint hashes.
	ResultStore = core.ResultStore
	// Store is the content-addressed on-disk ResultStore (one entry per
	// fingerprint, a binary payload behind a versioned header and a
	// CRC-32 trailer, written atomically, corrupt entries read as
	// misses). Open with
	// OpenStore, attach with WithDiskCache, and Close it on shutdown to
	// drain pending writes.
	Store = store.Store
	// StoreStats is a snapshot of a Store's hit/miss/corruption counters.
	StoreStats = store.Stats
)

// Progress event kinds streamed to observers.
const (
	// RunStarted fires when a simulation is dispatched to a worker slot.
	RunStarted = core.RunStarted
	// RunFinished fires when a dispatched simulation returns.
	RunFinished = core.RunFinished
	// RunCached fires when a run is answered from the memoizing cache.
	RunCached = core.RunCached
	// SweepPointDone fires as each point of a sweep completes.
	SweepPointDone = core.SweepPointDone
	// SweepDone fires when a whole sweep is assembled.
	SweepDone = core.SweepDone
	// ArtifactRendered fires when a plan report is rendered.
	ArtifactRendered = core.ArtifactRendered
	// ScenarioDone fires when a plan scenario completes.
	ScenarioDone = core.ScenarioDone
	// PlanDone fires when a whole plan has executed.
	PlanDone = core.PlanDone
)

// Declarative plan types. A Plan is an ordered set of Scenarios plus
// cross-scenario ReportSpecs; Engine.RunPlan executes it through the
// engine's bounded pool and memoizing cache, and plans round-trip
// through JSON so experiment matrices can live in files.
type (
	// Scenario declaratively describes one experiment.
	Scenario = core.Scenario
	// Plan is an ordered set of scenarios plus cross-scenario reports.
	Plan = core.Plan
	// PlanResult is the complete outcome of Engine.RunPlan.
	PlanResult = core.PlanResult
	// ScenarioResult is one scenario's execution record.
	ScenarioResult = core.ScenarioResult
	// ReportSpec declares one cross-scenario artifact of a plan.
	ReportSpec = core.ReportSpec
	// ReportKind names a cross-scenario report shape.
	ReportKind = core.ReportKind
	// Metric selects the number a series report extracts per sweep point.
	Metric = core.Metric
	// Output names a per-scenario artifact.
	Output = core.Output
	// ConfigOverrides is the serializable subset of Config a scenario may
	// override.
	ConfigOverrides = core.ConfigOverrides
	// TrafficSpec switches a scenario to the open-system model: a swept
	// offered rate feeding a fixed server pool.
	TrafficSpec = core.TrafficSpec
	// WorkloadRef references a workload by registered name or inline Spec.
	WorkloadRef = workload.Ref
)

// LoadPlan reads and validates a declarative plan from JSON; unknown
// fields are rejected so typos in plan files surface immediately.
func LoadPlan(r io.Reader) (*Plan, error) { return core.LoadPlan(r) }

// PaperPlan returns the paper's entire figure suite as a declarative
// plan; the zero ExperimentConfig selects the full-scale setup. Run it
// whole with Engine.RunPlan, or one artifact of it via Plan.Select.
func PaperPlan(cfg ExperimentConfig) *Plan { return core.PaperPlan(cfg) }

// StudyPlan returns the seven design-choice studies as a declarative
// plan, one report each (StudyHeapFactor … StudyReplication), every
// scenario at the top of the config's thread sweep. Run it whole with
// Engine.RunPlan, or one study of it via Plan.Select.
func StudyPlan(cfg ExperimentConfig) *Plan { return core.StudyPlan(cfg) }

// Analysis types.
type (
	// Sweep is one workload measured across thread counts.
	Sweep = core.Sweep
	// SweepConfig drives Engine.Sweep.
	SweepConfig = core.SweepConfig
	// Classification is the scalable/non-scalable verdict for a sweep.
	Classification = core.Classification
	// Factors is the paper's scalability-factor decomposition.
	Factors = core.Factors
	// ExperimentConfig parameterizes PaperPlan and StudyPlan.
	ExperimentConfig = core.ExperimentConfig
	// Table is a rendered figure or table.
	Table = report.Table
	// Histogram is a power-of-two bucketed distribution (lifespans,
	// pauses).
	Histogram = metrics.Histogram
	// LockProfiler aggregates DTrace-style per-lock statistics.
	LockProfiler = lockprof.Profiler
	// TraceSink receives Elephant-Tracks-style object events.
	TraceSink = trace.Sink
	// MemoryTrace buffers trace events in memory.
	MemoryTrace = trace.MemorySink
)

// Analytic scalability-fitting types. The fit package least-squares-fits
// Gunther's Universal Scalability Law C(N) = N / (1 + σ(N−1) + κN(N−1))
// and the Amdahl special case (κ = 0) to any (concurrency, throughput)
// sweep, separating contention cost (σ — what the paper ablates with
// lock disciplines) from coherency cost (κ — the GC/bandwidth/placement
// flavored losses). Sweep.FitUSL fits a simulated sweep directly, and
// the "usl" report and output kinds render fits inside plans.
type (
	// USLFit is a complete fitting result: the USL and Amdahl models
	// plus the residual-based choice between them.
	USLFit = fit.Fit
	// USLModel is one fitted scalability law: sigma, kappa, the
	// throughput scale, R^2, and the predicted peak via PeakN.
	USLModel = fit.Model
)

// NewEngine builds an Engine from functional options. With no options it
// parallelizes up to runtime.GOMAXPROCS(0) simulations and memoizes 256
// results.
func NewEngine(opts ...Option) *Engine { return core.NewEngine(opts...) }

// WithParallelism bounds the number of simulations the engine executes
// concurrently; sweeps never spawn more simulation goroutines than this.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithObserver registers an observer for the engine's progress events.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// WithCache sizes the engine's memoizing result cache and its memo of
// rendered artifacts, each in entries; zero or negative disables both.
func WithCache(entries int) Option { return core.WithCache(entries) }

// WithDiskCache backs the engine's in-memory result cache with a
// persistent store: misses read through to it before simulating, and
// every completed cacheable simulation is written through, so no
// fingerprint the store has ever seen is simulated twice — across
// engines, processes, or restarts. Typically an OpenStore Store; any
// ResultStore implementation works.
func WithDiskCache(s ResultStore) Option { return core.WithDiskStore(s) }

// OpenStore creates (if needed) and opens the content-addressed on-disk
// result store rooted at dir. Close it to drain pending writes.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Fingerprint returns the content hash identifying one (spec,
// canonical config) run everywhere results are shared — the in-memory
// cache and the disk store. The second return is false for runs that
// cannot be cached (those carrying a TraceSink or LockProfiler).
func Fingerprint(spec Spec, cfg Config) (string, bool) { return core.Fingerprint(spec, cfg) }

// ContextWithObserver returns a context that routes every engine event
// produced by work dispatched under it to o, in addition to the
// engine's own observers — how a server multiplexing many concurrent
// plans over one shared engine attributes progress to the right client.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	return core.ContextWithObserver(ctx, o)
}

// NewLockProfiler returns an empty DTrace-style lock profiler to attach to
// Config.LockProfiler.
func NewLockProfiler() *LockProfiler { return lockprof.New() }

// RegisterWorkload adds a custom workload model to the registry, making
// it resolvable by name everywhere — scenario plans, the experiment
// suite, and the command-line drivers. Names are unique; registering an
// existing name (including the built-ins) is an error.
func RegisterWorkload(s Spec) error { return workload.Registry.Register(s.Name, s) }

// Workloads returns every registered workload model in registration
// order: the six paper benchmarks, the bundled extensions, then user
// registrations.
func Workloads() []Spec {
	var out []Spec
	for _, name := range workload.Registry.Names() {
		s, _ := workload.Registry.Get(name)
		out = append(out, s)
	}
	return out
}

// WorkloadNames returns every registered workload name in registration
// order.
func WorkloadNames() []string { return workload.Registry.Names() }

// LookupWorkload resolves a registered workload by name.
func LookupWorkload(name string) (Spec, bool) {
	s, err := workload.Registry.Get(name)
	return s, err == nil
}

// PaperBenchmarks returns the six DaCapo-9.12 workload models in the
// paper's order: the scalable trio, then the non-scalable trio.
func PaperBenchmarks() []Spec { return workload.PaperSet() }

// Policy types. The contended-monitor discipline, the scheduler's
// thread-placement discipline, and the GC collection discipline are
// pluggable: built-ins are selected by registry name through
// Config.LockPolicy, Config.Sched.Placement, and Config.GCPolicy (or the
// matching plan fields), and custom implementations join the registries
// below.
type (
	// LockPolicy is the contended-monitor discipline of a run: what a
	// thread does when it finds a monitor held, and who gets the monitor
	// on release.
	LockPolicy = locks.Policy
	// Placement chooses the run queue for every waking thread.
	Placement = sched.Placement
	// GCPolicy is the collection discipline of a run: how stop-the-world
	// work maps onto pause time, whether the old generation is collected
	// concurrently, and how the heap is laid out over the machine.
	GCPolicy = gc.Policy
)

// Registry names of the built-in lock policies.
const (
	// LockPolicyFIFO parks contenders FIFO with direct handoff — the
	// paper's baseline (HotSpot-style) discipline and the default.
	LockPolicyFIFO = locks.PolicyFIFO
	// LockPolicyBarging frees the monitor on release and lets woken
	// waiters and latecomers race for it.
	LockPolicyBarging = locks.PolicyBarging
	// LockPolicySpinThenPark busy-waits a virtual-time budget before
	// parking; the spin is charged as mutator CPU.
	LockPolicySpinThenPark = locks.PolicySpinThenPark
	// LockPolicyRestricted caps the threads circulating over a monitor,
	// per Dice & Kogan's concurrency restriction.
	LockPolicyRestricted = locks.PolicyRestricted
)

// Registry names of the built-in placements.
const (
	// PlacementAffinity prefers a thread's last core, then least-loaded
	// with a home-socket tie-break — the default.
	PlacementAffinity = sched.PlacementAffinity
	// PlacementRoundRobin rotates wakeups across cores.
	PlacementRoundRobin = sched.PlacementRoundRobin
	// PlacementLeastLoaded always picks the shortest run queue.
	PlacementLeastLoaded = sched.PlacementLeastLoaded
)

// Registry names of the built-in GC policies.
const (
	// GCPolicyStwSerial is the paper's stop-the-world throughput
	// collector with the calibrated cost model — the default.
	GCPolicyStwSerial = gc.PolicyStwSerial
	// GCPolicyStwParallel splits collection work across the GC workers
	// with an explicit per-worker fork/join synchronization tax.
	GCPolicyStwParallel = gc.PolicyStwParallel
	// GCPolicyConcurrent collects the old generation with a CMS-style
	// background cycle, trading pause time for mutator-overlap CPU.
	GCPolicyConcurrent = gc.PolicyConcurrent
	// GCPolicyCompartment splits eden into per-thread-group compartments
	// homed on NUMA sockets (paper §IV, suggestion 2).
	GCPolicyCompartment = gc.PolicyCompartment
)

// RegisterLockPolicy adds a lock-policy factory to the registry, making
// it selectable by name through Config.LockPolicy, plan files, and
// cmd/javasim -lock-policy. The factory must return a fresh instance per
// call (policies hold per-run state); names are unique and registering an
// existing one — including the built-ins — is an error.
//
// Tuned variants of the built-ins are buildable anywhere via
// SpinThenParkPolicy and RestrictedPolicy. Policies with novel
// disciplines implement the Policy interface against internal/locks
// types, so they can only be authored inside this module.
func RegisterLockPolicy(name string, factory func() LockPolicy) error {
	return locks.Policies.Register(name, factory)
}

// LockPolicyNames returns every registered lock-policy name in
// registration order: the four built-ins, then user registrations.
func LockPolicyNames() []string { return locks.Policies.Names() }

// RegisterPlacement adds a placement factory to the registry, making it
// selectable by name through Config.Sched.Placement, plan files, and
// cmd/javasim -placement. The same uniqueness, freshness, and
// in-module-authorship rules as RegisterLockPolicy apply.
func RegisterPlacement(name string, factory func() Placement) error {
	return sched.Placements.Register(name, factory)
}

// PlacementNames returns every registered placement name in registration
// order: the three built-ins, then user registrations.
func PlacementNames() []string { return sched.Placements.Names() }

// SpinThenParkPolicy builds a spin-then-park lock policy with a custom
// busy-wait budget — register tuned variants under their own names, e.g.
// RegisterLockPolicy("spin-10us", func() LockPolicy {
// return SpinThenParkPolicy(10 * Microsecond) }).
func SpinThenParkPolicy(budget Time) LockPolicy { return locks.SpinThenPark(budget) }

// RestrictedPolicy builds a concurrency-restricting lock policy with a
// custom circulating-set cap (the built-in "restricted" uses 4).
func RestrictedPolicy(cap int) LockPolicy { return locks.Restricted(cap) }

// RegisterGCPolicy adds a GC-policy factory to the registry, making it
// selectable by name through Config.GCPolicy, plan files, and
// cmd/javasim -gc-policy. The same uniqueness, freshness, and
// in-module-authorship rules as RegisterLockPolicy apply.
func RegisterGCPolicy(name string, factory func() GCPolicy) error {
	return gc.Policies.Register(name, factory)
}

// GCPolicyNames returns every registered GC-policy name in registration
// order: the four built-ins, then user registrations.
func GCPolicyNames() []string { return gc.Policies.Names() }

// ParallelGCPolicy builds a stw-parallel GC policy with a custom
// efficiency-curve alpha and per-worker synchronization tax (the
// built-in "stw-parallel" uses 0.02 and 3µs) — register tuned variants
// under their own names, e.g. RegisterGCPolicy("stw-parallel-10us",
// func() GCPolicy { return ParallelGCPolicy(0.02, 10*Microsecond) }).
func ParallelGCPolicy(alpha float64, syncTax Time) GCPolicy { return gc.StwParallel(alpha, syncTax) }

// CompartmentGCPolicy builds a compartment GC policy with a fixed
// thread-group count (the built-in "compartment" defaults to one group
// per NUMA socket the enabled cores span).
func CompartmentGCPolicy(groups int) GCPolicy { return gc.Compartment(groups) }

// Machine-model types. The hardware a run executes on is itself a
// registry entry: Config.MachineName (or a plan's Machine field) selects
// a registered model by name, and custom machines join via
// RegisterMachine.
type (
	// MachineModel is a named, registrable hardware description: a
	// MachineConfig plus the socket-distance topology hook.
	MachineModel = machine.Model
	// MachineConfig describes a NUMA machine: sockets, cores, hardware
	// threads per core sharing an issue pipeline, per-node memory,
	// access latencies, and an optional per-socket bandwidth ceiling.
	MachineConfig = machine.Config
)

// Registry names of the built-in machine models.
const (
	// MachineOpteron6168 is the paper's testbed — four Opteron 6168
	// sockets, 12 cores each — and the default.
	MachineOpteron6168 = machine.DefaultModel
	// MachineSparcT3 is a four-socket SPARC T3-4 CMT system: 512
	// hardware threads, 8 per core sharing a dual-issue pipeline.
	MachineSparcT3 = machine.ModelSparcT3
	// MachineOpteron6168BW is the Opteron testbed with a finite
	// per-socket memory-bandwidth budget.
	MachineOpteron6168BW = machine.ModelOpteronBW
)

// RegisterMachine adds a machine model to the registry, making it
// selectable by name through Config.MachineName, plan files, and
// cmd/javasim -machine. Models are stateless descriptions (per-run state
// lives in the machine instantiated from them), names are unique, and
// registering an existing one — including the built-ins — is an error.
// Invalid configurations are rejected at registration time.
func RegisterMachine(m MachineModel) error {
	if m == nil {
		return errors.New("nil machine model")
	}
	return machine.Models.Register(m.Name(), m)
}

// NewMachineModel wraps a MachineConfig as a registrable model with the
// default flat socket topology (every remote socket one hop away).
// Implement the MachineModel interface directly for routed multi-hop
// systems.
func NewMachineModel(name string, cfg MachineConfig) MachineModel { return machine.NewModel(name, cfg) }

// MachineNames returns every registered machine-model name in
// registration order: the three built-ins, then user registrations.
func MachineNames() []string { return machine.Models.Names() }

// Open-system traffic types. Setting Config.Traffic (or a scenario's
// TrafficSpec) switches a run from the paper's closed loop — a fixed
// thread pool looping over the workload — to an open system: requests
// arrive from a seeded generator process, queue for the server pool, and
// each carries an arrival-to-completion latency. The Result then carries
// TrafficStats with the latency and queue-wait distributions, timeout
// accounting, and queue-depth trajectory — the goodput-under-overload
// measurements closed loops cannot express.
type (
	// TrafficConfig configures a run's arrival process; the zero value
	// (or Process "closed") keeps the closed-loop model.
	TrafficConfig = traffic.Config
	// ArrivalProcess generates successive inter-arrival gaps on the
	// virtual-time axis.
	ArrivalProcess = traffic.Process
	// ArrivalFactory builds an ArrivalProcess from a canonicalized
	// TrafficConfig. Returning a nil Process (and nil error) selects the
	// closed-loop model.
	ArrivalFactory = traffic.Factory
	// TrafficStats is the open-system measurement record of one run.
	TrafficStats = traffic.Stats
)

// Registry names of the built-in arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps — the
	// memoryless open-system baseline.
	ArrivalPoisson = traffic.ProcessPoisson
	// ArrivalBursty modulates a Poisson process with MMPP-style on/off
	// phases: bursts at BurstFactor times the mean rate, separated by
	// quiet stretches that preserve the long-run mean.
	ArrivalBursty = traffic.ProcessBursty
	// ArrivalDiurnal modulates the rate sinusoidally around the mean —
	// the load-follows-the-sun shape, compressed to simulation scale.
	ArrivalDiurnal = traffic.ProcessDiurnal
	// ArrivalClosed names the closed-loop adapter: selecting it runs the
	// paper's fixed-thread-pool model unchanged.
	ArrivalClosed = traffic.ProcessClosed
)

// RegisterArrivalProcess adds an arrival-process factory to the traffic
// registry, making it selectable by name through Config.Traffic.Process,
// plan Traffic blocks, and cmd/javasim -arrival. The factory must return
// a fresh instance per call (processes hold per-run state); names are
// unique and registering an existing one — including the built-ins — is
// an error.
func RegisterArrivalProcess(name string, factory ArrivalFactory) error {
	return traffic.Processes.Register(name, factory)
}

// ArrivalProcessNames returns every registered arrival-process name in
// registration order: the built-ins, then user registrations.
func ArrivalProcessNames() []string { return traffic.Processes.Names() }

// Virtual-time units, for policy budgets and config durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// PaperScalable reports the paper's published classification for a
// benchmark name.
func PaperScalable(name string) bool { return workload.Scalable(name) }
