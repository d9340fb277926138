// Package gc implements the stop-the-world throughput-oriented parallel
// collector the paper's JVM was configured with (HotSpot "Parallel
// Scavenge" + parallel mark-compact full collections).
//
// Minor collections copy live young objects: survivors move to a survivor
// space and age; objects older than the tenuring threshold — or overflowing
// the survivor space — are promoted to the old generation. Full collections
// mark and compact the entire heap. Pause durations come from a cost model
// over the live data actually processed, divided across parallel GC worker
// threads with a contention-limited efficiency curve, which is how real
// parallel collectors behave as worker counts grow.
//
// The generational hypothesis is exactly what the paper shows breaking
// down: longer object lifespans mean more nursery survivors, more copying
// per minor collection, faster old-generation fill, and more full
// collections (§III-B, Figure 2).
//
// The collection discipline itself is a pluggable Policy resolved from a
// string-keyed registry (see policy.go): "stw-serial" is the behavior
// described above, and "stw-parallel", "concurrent", and "compartment"
// swap in alternative cost models, concurrent old-generation collection,
// and NUMA-homed per-group heaps.
package gc

import (
	"fmt"
	"slices"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
	"javasim/internal/sim"
)

// Config parameterizes the collector.
type Config struct {
	// Workers is the number of parallel GC threads. Zero selects the
	// HotSpot default for the given core count (see DefaultWorkers).
	Workers int
	// TenuringThreshold is the number of minor collections an object must
	// survive before promotion.
	TenuringThreshold uint8
	// TriggerRatio is the old-generation occupancy starting a concurrent
	// cycle; zero means 0.65.
	TriggerRatio float64
}

// The cost model, calibrated against the paper's platform generation
// (2010-era Opteron: ~1 GB/s/thread evacuation bandwidth,
// tens-of-microsecond safepoint machinery). Results are stored under
// fingerprints of the run's inputs, not of these constants, so changing
// one needs a store.Version bump.
const (
	// copyCostPerKB is the time to evacuate 1 KiB of live data with one
	// worker.
	copyCostPerKB = 1200 * sim.Nanosecond
	// scanCostPerObject is the per-live-object tracing overhead.
	scanCostPerObject = 60 * sim.Nanosecond
	// fixedMinorPause is the setup/teardown floor of a minor collection.
	fixedMinorPause = 30 * sim.Microsecond
	// fixedFullPause is the setup/teardown floor of a full collection.
	fixedFullPause = 400 * sim.Microsecond
	// efficiencyAlpha shapes parallel efficiency: eff(w) = 1/(1+alpha*(w-1)).
	// Larger alpha means worker synchronization costs bite sooner.
	efficiencyAlpha = 0.09
	// compactCostPerKB is the per-KiB cost of sliding live old-generation
	// data during a full collection.
	compactCostPerKB = 1500 * sim.Nanosecond
	// concMarkCostPerObject is the live-object scanning cost during
	// concurrent marking (slower than STW scanning: barrier overhead).
	concMarkCostPerObject = 120 * sim.Nanosecond
	// sweepCostPerKB is the concurrent sweep cost over the old region.
	sweepCostPerKB = 400 * sim.Nanosecond
	// initialMarkPause and remarkPause are the brief stop-the-world
	// pauses bracketing the concurrent phases.
	initialMarkPause = 40 * sim.Microsecond
	remarkPause      = 60 * sim.Microsecond
	// fragmentationRatio is the fraction of swept (freed) bytes lost to
	// fragmentation until the next compacting collection.
	fragmentationRatio = 0.25
)

// WithDefaults fills the zero tenuring threshold and trigger ratio.
func (c Config) WithDefaults() Config {
	if c.TenuringThreshold == 0 {
		c.TenuringThreshold = 2
	}
	if c.TriggerRatio == 0 {
		c.TriggerRatio = 0.65
	}
	return c
}

// DefaultWorkers returns HotSpot's ParallelGCThreads heuristic for a
// machine with the given core count: all cores up to 8, then five eighths
// of the remainder.
func DefaultWorkers(cores int) int {
	if cores <= 8 {
		if cores < 1 {
			return 1
		}
		return cores
	}
	return 8 + (cores-8)*5/8
}

// Kind distinguishes collection types.
type Kind uint8

const (
	// Minor is a young-generation (scavenge) collection.
	Minor Kind = iota
	// Full is a whole-heap mark-compact collection.
	Full
	// InitialMark is the brief pause opening a concurrent cycle.
	InitialMark
	// Remark is the brief pause closing concurrent marking.
	Remark
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Minor:
		return "minor"
	case Full:
		return "full"
	case InitialMark:
		return "initial-mark"
	case Remark:
		return "remark"
	default:
		return "invalid"
	}
}

// Breakdown splits a pause into its phases, mirroring HotSpot's
// PrintGCDetails: fixed setup/teardown (safepoint arming, worker
// spin-up), live-object scanning, and evacuation/compaction of bytes.
type Breakdown struct {
	Setup sim.Time
	Scan  sim.Time
	Copy  sim.Time
}

// Total returns the sum of the phases.
func (b Breakdown) Total() sim.Time { return b.Setup + b.Scan + b.Copy }

// Pause describes one completed collection.
type Pause struct {
	Kind          Kind
	Start         sim.Time
	Duration      sim.Time
	Phases        Breakdown
	Compartment   int // -1 for full collections
	ScannedLive   int64
	CopiedBytes   int64 // survivor bytes evacuated (minor only)
	PromotedBytes int64
	ReclaimedObjs int64
	ReclaimedB    int64
}

// Stats aggregates collector activity over a run.
type Stats struct {
	MinorCount    int64
	FullCount     int64
	MinorTime     sim.Time
	FullTime      sim.Time
	ConcCycles    int64    // completed concurrent mark-sweep cycles
	ConcPauses    int64    // initial-mark and remark pauses
	ConcPauseTime sim.Time // initial-mark + remark stop-the-world time
	MaxPause      sim.Time // the longest pause of any kind
	PromotedBytes int64
	CopiedBytes   int64
	ReclaimedB    int64
}

// TotalTime returns the combined stop-the-world pause time.
func (s Stats) TotalTime() sim.Time { return s.MinorTime + s.FullTime + s.ConcPauseTime }

// Collections returns the number of stop-the-world pauses of every kind.
func (s Stats) Collections() int64 { return s.MinorCount + s.FullCount + s.ConcPauses }

// Collector tracks generation membership and executes collections.
type Collector struct {
	cfg    Config
	policy Policy
	heap   *heap.Heap
	reg    *objmodel.Registry

	// copyFactor scales each compartment's minor-collection evacuation
	// cost; nil means 1.0 everywhere. The compartment policy sets it to
	// the local-to-interleaved memory-latency ratio of each compartment's
	// NUMA home, modeling region placement.
	copyFactor []float64

	// young holds the IDs of young-generation objects per compartment;
	// old holds promoted objects. Dead entries are filtered at collection
	// time, exactly when a real collector would discover them. A
	// collection compacts each list in place, so allocation after it
	// appends into retained capacity instead of regrowing from empty.
	young [][]objmodel.ID
	old   []objmodel.ID

	// survBytes tracks each compartment's share of the survivor space.
	survBytes []int64

	// peak is the largest young plus old population seen when a
	// collection or sweep starts, the only points where it shrinks.
	peak int

	stats     Stats
	phases    Breakdown
	onPromote func(objmodel.ID)
}

// New builds a collector over h and reg whose pause cost model and heap
// discipline come from policy p. It panics unless the worker count is set
// (use DefaultWorkers).
func New(p Policy, cfg Config, h *heap.Heap, reg *objmodel.Registry) *Collector {
	cfg = cfg.WithDefaults()
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("gc: Workers = %d, need >= 1 (use DefaultWorkers)", cfg.Workers))
	}
	return &Collector{
		cfg:       cfg,
		policy:    p,
		heap:      h,
		reg:       reg,
		young:     make([][]objmodel.ID, h.Compartments()),
		survBytes: make([]int64, h.Compartments()),
	}
}

// Policy returns the collector's collection discipline.
func (c *Collector) Policy() Policy { return c.policy }

// SetCopyFactors installs per-compartment evacuation cost multipliers
// (len must equal the heap's compartment count). The VM computes them
// from the machine's NUMA latencies when a policy homes compartment
// regions on specific sockets; factors below 1 model local evacuation
// beating the interleaved baseline the cost model is calibrated for.
func (c *Collector) SetCopyFactors(factors []float64) {
	if factors != nil && len(factors) != c.heap.Compartments() {
		panic(fmt.Sprintf("gc: %d copy factors for %d compartments", len(factors), c.heap.Compartments()))
	}
	c.copyFactor = factors
}

// Config returns the defaulted configuration.
func (c *Collector) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Collector) Stats() Stats { return c.stats }

// Phases returns the stop-the-world pause time of every recorded pause,
// split into its phases.
func (c *Collector) Phases() Breakdown { return c.phases }

// UseBuffers makes young[i] compartment i's young list and old the old
// list, each emptied, so a collector reuses the capacity an earlier one
// grew (see Buffers) instead of growing its lists from empty. Lists past
// the heap's compartment count are dropped, and missing ones start
// empty. It must be called before the first allocation is registered.
func (c *Collector) UseBuffers(young [][]objmodel.ID, old []objmodel.ID) {
	n := len(c.young)
	if len(young) < n {
		young = append(young, make([][]objmodel.ID, n-len(young))...)
	}
	clear(young[n:])
	young = young[:n]
	for i := range young {
		young[i] = young[i][:0]
	}
	c.young, c.old = young, old[:0]
}

// Buffers returns the collector's young lists and old list, for a later
// collector's UseBuffers.
func (c *Collector) Buffers() (young [][]objmodel.ID, old []objmodel.ID) {
	return c.young, c.old
}

// OnAlloc registers a freshly allocated object with its compartment's
// young generation. The VM calls this for every allocation.
func (c *Collector) OnAlloc(id objmodel.ID, comp int) {
	c.young[comp] = append(c.young[comp], id)
}

// OnAllocOld registers a pretenured object directly with the old
// generation; it will never be touched by a minor collection.
func (c *Collector) OnAllocOld(id objmodel.ID) {
	o := c.reg.Get(id)
	o.Gen = objmodel.Old
	c.old = append(c.old, id)
}

// SetPromoteHook installs a callback observing every object promotion
// (aging or survivor overflow, not full-collection evacuation). The VM's
// pretenuring learner uses it: promotion is the strongest long-lived
// signal available before an object dies.
func (c *Collector) SetPromoteHook(fn func(objmodel.ID)) { c.onPromote = fn }

// YoungCount returns the tracked young population of a compartment
// (including not-yet-collected dead objects).
func (c *Collector) YoungCount(comp int) int { return len(c.young[comp]) }

// OldCount returns the tracked old-generation population.
func (c *Collector) OldCount() int { return len(c.old) }

// PeakTracked returns the largest young plus old population the
// collector has tracked, dead objects not yet collected included. Since
// every registry slot stays occupied until the collector drops it, this
// is also the registry's slot high-water mark.
func (c *Collector) PeakTracked() int { return max(c.peak, c.tracked()) }

func (c *Collector) tracked() int {
	n := len(c.old)
	for _, y := range c.young {
		n += len(y)
	}
	return n
}

// notePeak samples the tracked population before a collection shrinks it.
func (c *Collector) notePeak() { c.peak = max(c.peak, c.tracked()) }

// AuditSlots checks the invariant slot recycling rests on: every slot the
// registry has handed out is either on its free list or held by exactly
// one young or old list.
func (c *Collector) AuditSlots() error {
	held := make([]bool, c.reg.Slots())
	for _, list := range append(slices.Clone(c.young), c.old) {
		for _, id := range list {
			switch {
			case c.reg.Freed(id):
				return fmt.Errorf("gc: slot %d is tracked but free", id)
			case held[id]:
				return fmt.Errorf("gc: slot %d is tracked twice", id)
			}
			held[id] = true
		}
	}
	for id, ok := range held {
		if !ok && !c.reg.Freed(objmodel.ID(id)) {
			return fmt.Errorf("gc: slot %d is neither tracked nor free", id)
		}
	}
	return nil
}

// parallelTime maps one phase's sequential work onto elapsed pause time
// through the policy's cost model (for stw-serial, the calibrated
// synchronization-limited efficiency curve).
func (c *Collector) parallelTime(sequential sim.Time) sim.Time {
	return c.policy.PhaseTime(c.cfg, sequential)
}

// CollectMinor runs a minor collection of compartment comp at virtual time
// now. It returns the pause, or heap.ErrOldGenFull when promotion cannot
// fit — the caller must run CollectFull and retry.
//
// The collection makes two passes over the young list. The first decides
// the surviving, promoted and reclaimed bytes and writes nothing, so a
// commit the heap refuses leaves no state to roll back. The second
// replays the same decisions in the same order: it ages survivors and
// compacts them into the young list in place, frees dead slots in list
// order, and appends promotions to the old list.
func (c *Collector) CollectMinor(comp int, now sim.Time) (Pause, error) {
	c.notePeak()
	young := c.young[comp]
	var (
		survivorBytes int64
		promotedBytes int64
		scanned       int64
		reclaimedObjs int64
		reclaimedB    int64
	)
	// Each compartment may fill only its share of the shared survivor
	// space, so the aggregate never overflows.
	survivorCap := c.heap.SurvivorSize() / int64(c.heap.Compartments())
	for _, id := range young {
		o := c.reg.Get(id)
		if !o.Live() {
			reclaimedObjs++
			reclaimedB += int64(o.Size)
			continue
		}
		scanned++
		if c.promotes(o, survivorBytes, survivorCap) {
			promotedBytes += int64(o.Size)
			continue
		}
		survivorBytes += int64(o.Size)
	}
	if err := c.heap.CommitMinor(comp, survivorBytes, promotedBytes, c.survBytes[comp]); err != nil {
		return Pause{}, err
	}
	survivors, kept := young[:0], int64(0)
	for _, id := range young {
		o := c.reg.Get(id)
		if !o.Live() {
			c.reg.Free(id)
			continue
		}
		promote := c.promotes(o, kept, survivorCap)
		o.Age++
		if promote {
			o.Gen = objmodel.Old
			c.old = append(c.old, id)
			if c.onPromote != nil {
				c.onPromote(id)
			}
			continue
		}
		survivors = append(survivors, id)
		kept += int64(o.Size)
	}
	c.young[comp] = survivors
	c.survBytes[comp] = survivorBytes

	copied := survivorBytes + promotedBytes
	scanCost := sim.Time(scanned) * scanCostPerObject
	copyCost := sim.Time(copied/1024) * copyCostPerKB
	if c.copyFactor != nil {
		copyCost = sim.Time(float64(copyCost) * c.copyFactor[comp])
	}
	phases := Breakdown{
		Setup: fixedMinorPause,
		Scan:  c.parallelTime(scanCost),
		Copy:  c.parallelTime(copyCost),
	}
	pause := Pause{
		Kind:          Minor,
		Start:         now,
		Duration:      phases.Total(),
		Phases:        phases,
		Compartment:   comp,
		ScannedLive:   scanned,
		CopiedBytes:   survivorBytes,
		PromotedBytes: promotedBytes,
		ReclaimedObjs: reclaimedObjs,
		ReclaimedB:    reclaimedB,
	}
	c.record(pause)
	return pause, nil
}

// promotes reports whether live young object o, surviving a minor
// collection that has kept survivorBytes in the survivor space so far,
// is promoted: it reaches the tenuring threshold, or, as in HotSpot, it
// would overflow the compartment's survivorCap whatever its age.
func (c *Collector) promotes(o *objmodel.Object, survivorBytes, survivorCap int64) bool {
	return int(o.Age)+1 >= int(c.cfg.TenuringThreshold) || survivorBytes+int64(o.Size) > survivorCap
}

// CollectFull runs a whole-heap mark-compact collection at virtual time
// now. Live young objects are promoted (HotSpot's full collection empties
// the young generation into old), dead objects of both generations are
// reclaimed, and the old generation is compacted. Like CollectMinor, it
// decides everything in a first pass that writes nothing, and applies it
// in a second once the heap has accepted the commit.
func (c *Collector) CollectFull(now sim.Time) (Pause, error) {
	c.notePeak()
	var (
		liveOldBytes  int64
		promotedBytes int64
		scanned       int64
		reclaimedObjs int64
		reclaimedB    int64
	)
	for _, id := range c.old {
		o := c.reg.Get(id)
		if !o.Live() {
			reclaimedObjs++
			reclaimedB += int64(o.Size)
			continue
		}
		scanned++
		liveOldBytes += int64(o.Size)
	}
	for _, young := range c.young {
		for _, id := range young {
			o := c.reg.Get(id)
			if !o.Live() {
				reclaimedObjs++
				reclaimedB += int64(o.Size)
				continue
			}
			scanned++
			promotedBytes += int64(o.Size)
			liveOldBytes += int64(o.Size)
		}
	}
	if err := c.heap.CommitFull(liveOldBytes); err != nil {
		return Pause{}, err // genuine OutOfMemoryError
	}
	old := c.old[:0]
	for _, id := range c.old {
		if !c.reg.Get(id).Live() {
			c.reg.Free(id)
			continue
		}
		old = append(old, id)
	}
	for comp, young := range c.young {
		for _, id := range young {
			o := c.reg.Get(id)
			if !o.Live() {
				c.reg.Free(id)
				continue
			}
			o.Gen = objmodel.Old
			o.Age = 0
			old = append(old, id)
		}
		c.young[comp] = young[:0]
		c.survBytes[comp] = 0
	}
	c.old = old
	markFixup := sim.Time(scanned) * scanCostPerObject * 2 // mark + fixup passes
	compact := sim.Time(liveOldBytes/1024) * compactCostPerKB
	phases := Breakdown{
		Setup: fixedFullPause,
		Scan:  c.parallelTime(markFixup),
		Copy:  c.parallelTime(compact),
	}
	pause := Pause{
		Kind:          Full,
		Start:         now,
		Duration:      phases.Total(),
		Phases:        phases,
		Compartment:   -1,
		ScannedLive:   scanned,
		PromotedBytes: promotedBytes,
		ReclaimedObjs: reclaimedObjs,
		ReclaimedB:    reclaimedB,
	}
	c.record(pause)
	return pause, nil
}

func (c *Collector) record(p Pause) {
	switch p.Kind {
	case Minor:
		c.stats.MinorCount++
		c.stats.MinorTime += p.Duration
	case Full:
		c.stats.FullCount++
		c.stats.FullTime += p.Duration
	case InitialMark, Remark:
		c.stats.ConcPauses++
		c.stats.ConcPauseTime += p.Duration
	}
	c.stats.MaxPause = max(c.stats.MaxPause, p.Duration)
	c.phases.Setup += p.Phases.Setup
	c.phases.Scan += p.Phases.Scan
	c.phases.Copy += p.Phases.Copy
	c.stats.PromotedBytes += p.PromotedBytes
	c.stats.CopiedBytes += p.CopiedBytes
	c.stats.ReclaimedB += p.ReclaimedB
}
