package gc

import (
	"javasim/internal/registry"
	"javasim/internal/sim"
)

// The collection discipline — how stop-the-world work maps onto elapsed
// pause time, whether the old generation is collected concurrently, and
// how the heap is laid out over the machine — is a Policy. The seed
// behavior (HotSpot-style throughput collector, one shared eden) is the
// "stw-serial" policy; the alternatives model the GC-side mitigation
// space the paper's fixed JVM could not explore: an explicitly
// synchronized parallel collector whose coordination tax grows with the
// worker count ("stw-parallel", the CMSSW-style GC-bound collapse on
// many-core machines), a mostly-concurrent old-generation collector that
// trades pauses for mutator-overlap CPU ("concurrent"), and per-thread-
// group heap compartments with NUMA-aware region placement
// ("compartment", the paper's §IV suggestion 2 taken to its NUMA-homed
// conclusion). Policies are stateless value objects, but the registry
// still mints a fresh instance per resolution for symmetry with the lock
// and placement registries.

// Registry names of the built-in policies.
const (
	// PolicyStwSerial is the seed collector: stop-the-world minor and
	// full collections, one collection at a time, with the calibrated
	// parallel-phase cost model. The default; golden artifacts are
	// byte-identical under it.
	PolicyStwSerial = "stw-serial"
	// PolicyStwParallel splits collection work across the GC workers
	// with an explicit fork/join synchronization tax per parallel phase:
	// better per-worker efficiency than the calibrated default, but a
	// coordination cost that grows with the worker count.
	PolicyStwParallel = "stw-parallel"
	// PolicyConcurrent collects the old generation with a CMS-style
	// background cycle: brief initial-mark/remark pauses piggybacked on
	// minor collections, marking and sweeping on GC threads that compete
	// with mutators for cores (accounted as mutator-overlap CPU, not
	// pause time), fragmentation until a fallback full collection.
	PolicyConcurrent = "concurrent"
	// PolicyCompartment splits eden into per-thread-group compartments —
	// one per NUMA socket by default — homes each compartment's region on
	// its socket's memory node, and groups mutators onto the compartment
	// local to their cores, so minor collections evacuate over local
	// memory instead of the interleaved average.
	PolicyCompartment = "compartment"
)

// DefaultParallelAlpha is the stw-parallel policy's efficiency-curve
// shape: lower than the calibrated throughput default (0.09), so the
// per-worker division scales better before its synchronization tax bites.
const DefaultParallelAlpha = 0.02

// DefaultSyncTax is the stw-parallel policy's per-worker fork/join cost,
// charged once per parallel phase: worker spin-up, termination detection,
// and work-stealing balance barriers.
const DefaultSyncTax = 3 * sim.Microsecond

// LayoutRequest carries the run shape a policy lays the heap out for.
type LayoutRequest struct {
	// Compartments is the compartment count the run's configuration
	// requested: 0 means unset (the policy may pick a default), 1 an
	// explicit single shared eden.
	Compartments int
	// Cores is the enabled core count.
	Cores int
	// Sockets is the number of NUMA sockets the enabled cores span.
	Sockets int
	// CoresPerSocket is the machine's cores-per-socket count.
	CoresPerSocket int
}

// Layout is the heap shaping a policy chose for one run.
type Layout struct {
	// Compartments is the eden slice count the heap is built with.
	Compartments int
	// HomeSockets, when non-nil, is the NUMA home socket of each
	// compartment's region (len == Compartments). Nil means the heap is
	// interleaved across nodes with no compartment affinity — the seed
	// behavior.
	HomeSockets []int
}

// Policy is the collection discipline of one run. Implementations run
// inside the single-threaded simulation and must be deterministic.
type Policy interface {
	// Name returns the discipline's canonical name (for the built-ins,
	// their registry name). A tuned variant registered under a custom key
	// still reports its family name here — the name a run actually
	// selected travels in the config string and vm.Result.GCPolicy.
	Name() string
	// PhaseTime maps one stop-the-world phase's sequential work (scan or
	// evacuation cost with a single worker) onto elapsed pause time given
	// the collector's configured worker pool.
	PhaseTime(cfg Config, sequential sim.Time) sim.Time
	// ConcurrentOld reports whether the old generation is collected by a
	// background concurrent cycle instead of stop-the-world full
	// collections.
	ConcurrentOld() bool
	// Layout resolves the heap shaping — compartment count and per-
	// compartment NUMA homes — before the VM assembles.
	Layout(req LayoutRequest) Layout
}

// --- Registry ----------------------------------------------------------

// Policies is the GC-policy catalog. Entries are factories that return
// a fresh instance per call. The empty name selects stw-serial.
var Policies = registry.New[func() Policy]("gc policy", PolicyStwSerial, nil)

func init() {
	Policies.MustRegister(PolicyStwSerial, func() Policy { return StwSerial() })
	Policies.MustRegister(PolicyStwParallel, func() Policy {
		return StwParallel(DefaultParallelAlpha, DefaultSyncTax)
	})
	Policies.MustRegister(PolicyConcurrent, func() Policy { return Concurrent() })
	Policies.MustRegister(PolicyCompartment, func() Policy { return Compartment(0) })
}

// --- stw-serial --------------------------------------------------------

// StwSerial returns the default discipline: the seed's stop-the-world
// throughput collector with the calibrated contention-limited efficiency
// curve eff(w) = 1/(1+alpha*(w-1)).
func StwSerial() Policy { return stwSerialPolicy{} }

type stwSerialPolicy struct{}

func (stwSerialPolicy) Name() string        { return PolicyStwSerial }
func (stwSerialPolicy) ConcurrentOld() bool { return false }

func (stwSerialPolicy) PhaseTime(cfg Config, sequential sim.Time) sim.Time {
	w := float64(cfg.Workers)
	eff := 1 / (1 + efficiencyAlpha*(w-1))
	return sim.Time(float64(sequential) / (w * eff))
}

func (stwSerialPolicy) Layout(req LayoutRequest) Layout {
	return Layout{Compartments: req.Compartments}
}

// --- stw-parallel ------------------------------------------------------

// StwParallel returns a stop-the-world discipline with an explicit
// fork/join model: work divides across the workers under its own
// efficiency curve (alpha; <= 0 selects DefaultParallelAlpha), and every
// parallel phase pays syncTax per extra worker (<= 0 selects
// DefaultSyncTax) for spin-up, termination detection, and balance
// barriers. Small collections are dominated by the tax — pause time
// *grows* with the worker count, the GC-bound scaling collapse CMSSW
// reports on many-core machines — while large collections benefit from
// the better efficiency curve.
func StwParallel(alpha float64, syncTax sim.Time) Policy {
	if alpha <= 0 {
		alpha = DefaultParallelAlpha
	}
	if syncTax <= 0 {
		syncTax = DefaultSyncTax
	}
	return &stwParallelPolicy{alpha: alpha, syncTax: syncTax}
}

type stwParallelPolicy struct {
	alpha   float64
	syncTax sim.Time
}

func (p *stwParallelPolicy) Name() string        { return PolicyStwParallel }
func (p *stwParallelPolicy) ConcurrentOld() bool { return false }

func (p *stwParallelPolicy) PhaseTime(cfg Config, sequential sim.Time) sim.Time {
	w := float64(cfg.Workers)
	eff := 1 / (1 + p.alpha*(w-1))
	return sim.Time(float64(sequential)/(w*eff)) + p.syncTax*sim.Time(cfg.Workers-1)
}

func (p *stwParallelPolicy) Layout(req LayoutRequest) Layout {
	return Layout{Compartments: req.Compartments}
}

// --- concurrent --------------------------------------------------------

// Concurrent returns the mostly-concurrent discipline: minor collections
// stay stop-the-world under the calibrated cost model, while the old
// generation is marked and swept by background GC threads whose CPU time
// is accounted as mutator-overlap (vm.Result.ConcGCCPUTime), bracketed by
// brief initial-mark/remark pauses. The trigger ratio stays in Config.
func Concurrent() Policy { return concurrentPolicy{} }

type concurrentPolicy struct{}

func (concurrentPolicy) Name() string        { return PolicyConcurrent }
func (concurrentPolicy) ConcurrentOld() bool { return true }

func (concurrentPolicy) PhaseTime(cfg Config, sequential sim.Time) sim.Time {
	return stwSerialPolicy{}.PhaseTime(cfg, sequential)
}

func (concurrentPolicy) Layout(req LayoutRequest) Layout {
	return Layout{Compartments: req.Compartments}
}

// --- compartment -------------------------------------------------------

// Compartment returns the per-thread-group heap discipline: eden splits
// into groups compartments (<= 0 selects one per NUMA socket the enabled
// cores span), each compartment's region is homed on one socket's memory
// node, and the VM groups mutators onto the compartment local to their
// cores. Minor collections then evacuate over local memory — the
// collector's copy phase is scaled by the local-to-interleaved latency
// ratio — and only stop the owning group, the §IV suggestion-2 pause
// isolation. An explicit vm.Config.Compartments count overrides groups.
func Compartment(groups int) Policy { return &compartmentPolicy{groups: groups} }

type compartmentPolicy struct {
	groups int
}

func (p *compartmentPolicy) Name() string        { return PolicyCompartment }
func (p *compartmentPolicy) ConcurrentOld() bool { return false }

func (p *compartmentPolicy) PhaseTime(cfg Config, sequential sim.Time) sim.Time {
	return stwSerialPolicy{}.PhaseTime(cfg, sequential)
}

func (p *compartmentPolicy) Layout(req LayoutRequest) Layout {
	// An explicit request (including 1: the single shared eden) wins;
	// only an unset count falls back to the tuned group count, then to
	// one compartment per spanned socket.
	comps := req.Compartments
	if comps == 0 {
		comps = p.groups
	}
	if comps <= 0 {
		comps = req.Sockets
	}
	if comps < 1 {
		comps = 1
	}
	homes := make([]int, comps)
	sockets := req.Sockets
	if sockets < 1 {
		sockets = 1
	}
	for c := range homes {
		homes[c] = c % sockets
	}
	return Layout{Compartments: comps, HomeSockets: homes}
}
