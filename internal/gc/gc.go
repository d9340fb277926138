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

	"javasim/internal/heap"
	"javasim/internal/metrics"
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
	// CopyCostPerKB is the time to evacuate 1 KiB of live data with one
	// worker.
	CopyCostPerKB sim.Time
	// ScanCostPerObject is the per-live-object tracing overhead.
	ScanCostPerObject sim.Time
	// FixedMinorPause is the setup/teardown floor of a minor collection.
	FixedMinorPause sim.Time
	// FixedFullPause is the setup/teardown floor of a full collection.
	FixedFullPause sim.Time
	// EfficiencyAlpha shapes parallel efficiency: eff(w) = 1/(1+alpha*(w-1)).
	// Larger alpha means worker synchronization costs bite sooner.
	EfficiencyAlpha float64
	// CompactCostPerKB is the per-KiB cost of sliding live old-generation
	// data during a full collection.
	CompactCostPerKB sim.Time

	// Concurrent enables the mostly-concurrent old-generation collector
	// (CMS-style) instead of stop-the-world full collections: brief
	// initial-mark/remark pauses piggybacked on minor collections,
	// marking and sweeping on background threads that compete with
	// mutators for cores, no compaction (fragmentation accrues until a
	// fallback full collection).
	Concurrent bool
	// ConcurrentThreads is the background GC thread count; zero selects
	// max(1, Workers/4), HotSpot's ConcGCThreads heuristic.
	ConcurrentThreads int
	// TriggerRatio is the old-generation occupancy starting a concurrent
	// cycle; zero means 0.65.
	TriggerRatio float64
	// ConcMarkCostPerObject is the live-object scanning cost during
	// concurrent marking (slower than STW scanning: barrier overhead).
	ConcMarkCostPerObject sim.Time
	// SweepCostPerKB is the concurrent sweep cost over the old region.
	SweepCostPerKB sim.Time
	// InitialMarkPause and RemarkPause are the brief stop-the-world
	// pauses bracketing the concurrent phases.
	InitialMarkPause sim.Time
	RemarkPause      sim.Time
	// FragmentationRatio is the fraction of swept (freed) bytes lost to
	// fragmentation until the next compacting collection; zero means 0.25.
	FragmentationRatio float64
}

// WithDefaults fills zero fields with defaults calibrated against the
// paper's platform generation (2010-era Opteron: ~1 GB/s/thread evacuation
// bandwidth, tens-of-microsecond safepoint machinery).
func (c Config) WithDefaults() Config {
	if c.TenuringThreshold == 0 {
		c.TenuringThreshold = 2
	}
	if c.CopyCostPerKB == 0 {
		c.CopyCostPerKB = 1200 * sim.Nanosecond
	}
	if c.ScanCostPerObject == 0 {
		c.ScanCostPerObject = 60 * sim.Nanosecond
	}
	if c.FixedMinorPause == 0 {
		c.FixedMinorPause = 30 * sim.Microsecond
	}
	if c.FixedFullPause == 0 {
		c.FixedFullPause = 400 * sim.Microsecond
	}
	if c.EfficiencyAlpha == 0 {
		c.EfficiencyAlpha = 0.09
	}
	if c.CompactCostPerKB == 0 {
		c.CompactCostPerKB = 1500 * sim.Nanosecond
	}
	if c.ConcurrentThreads == 0 {
		c.ConcurrentThreads = c.Workers / 4
		if c.ConcurrentThreads < 1 {
			c.ConcurrentThreads = 1
		}
	}
	if c.TriggerRatio == 0 {
		c.TriggerRatio = 0.65
	}
	if c.ConcMarkCostPerObject == 0 {
		c.ConcMarkCostPerObject = 120 * sim.Nanosecond
	}
	if c.SweepCostPerKB == 0 {
		c.SweepCostPerKB = 400 * sim.Nanosecond
	}
	if c.InitialMarkPause == 0 {
		c.InitialMarkPause = 40 * sim.Microsecond
	}
	if c.RemarkPause == 0 {
		c.RemarkPause = 60 * sim.Microsecond
	}
	if c.FragmentationRatio == 0 {
		c.FragmentationRatio = 0.25
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
	ConcPauseTime sim.Time // initial-mark + remark stop-the-world time
	PromotedBytes int64
	CopiedBytes   int64
	ReclaimedB    int64
}

// TotalTime returns the combined stop-the-world pause time.
func (s Stats) TotalTime() sim.Time { return s.MinorTime + s.FullTime + s.ConcPauseTime }

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
	// time, exactly when a real collector would discover them.
	young [][]objmodel.ID
	old   []objmodel.ID

	// spare is each compartment's second young-list buffer: a minor
	// collection writes its survivors there and swaps it with the young
	// list, so allocation after a collection appends into retained
	// capacity instead of regrowing the list from empty. promoted is the
	// minor collection's reused promotion scratch.
	spare    [][]objmodel.ID
	promoted []objmodel.ID

	// survBytes tracks each compartment's share of the survivor space.
	survBytes []int64

	stats     Stats
	pauses    []Pause
	pauseHist *metrics.Histogram
	onPromote func(objmodel.ID)
}

// New builds a collector over h and reg under the default stw-serial
// policy. The worker count must be set (use DefaultWorkers) before any
// collection runs.
func New(cfg Config, h *heap.Heap, reg *objmodel.Registry) *Collector {
	return NewWithPolicy(StwSerial(), cfg, h, reg)
}

// NewWithPolicy builds a collector whose pause cost model and heap
// discipline come from p (nil selects stw-serial).
func NewWithPolicy(p Policy, cfg Config, h *heap.Heap, reg *objmodel.Registry) *Collector {
	cfg = cfg.WithDefaults()
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("gc: Workers = %d, need >= 1 (use DefaultWorkers)", cfg.Workers))
	}
	if p == nil {
		p = StwSerial()
	}
	return &Collector{
		cfg:       cfg,
		policy:    p,
		heap:      h,
		reg:       reg,
		young:     make([][]objmodel.ID, h.Compartments()),
		spare:     make([][]objmodel.ID, h.Compartments()),
		survBytes: make([]int64, h.Compartments()),
		pauseHist: metrics.NewHistogram("gc-pause-ns"),
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

// Pauses returns every recorded pause in order.
func (c *Collector) Pauses() []Pause { return c.pauses }

// PauseHistogram returns the distribution of pause durations (ns).
func (c *Collector) PauseHistogram() *metrics.Histogram { return c.pauseHist }

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

// parallelTime maps one phase's sequential work onto elapsed pause time
// through the policy's cost model (for stw-serial, the calibrated
// synchronization-limited efficiency curve).
func (c *Collector) parallelTime(sequential sim.Time) sim.Time {
	return c.policy.PhaseTime(c.cfg, sequential)
}

// CollectMinor runs a minor collection of compartment comp at virtual time
// now. It returns the pause, or heap.ErrOldGenFull when promotion cannot
// fit — the caller must run CollectFull and retry.
func (c *Collector) CollectMinor(comp int, now sim.Time) (Pause, error) {
	young := c.young[comp]
	survivors := c.spare[comp][:0]
	if cap(survivors) < cap(young) {
		survivors = make([]objmodel.ID, 0, cap(young))
	}
	promoted := c.promoted[:0]
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
	// First pass: liveness and aging. Objects are processed in allocation
	// order; overflow beyond the survivor space promotes regardless of age,
	// as in HotSpot.
	for _, id := range young {
		o := c.reg.Get(id)
		if !o.Live() {
			reclaimedObjs++
			reclaimedB += int64(o.Size)
			continue
		}
		scanned++
		o.Age++
		if o.Age >= c.cfg.TenuringThreshold || survivorBytes+int64(o.Size) > survivorCap {
			o.Gen = objmodel.Old
			promoted = append(promoted, id)
			promotedBytes += int64(o.Size)
			continue
		}
		survivors = append(survivors, id)
		survivorBytes += int64(o.Size)
	}
	if err := c.heap.CommitMinor(comp, survivorBytes, promotedBytes, c.survBytes[comp]); err != nil {
		// Roll back aging and generation flags so the retry after a full
		// collection observes consistent state.
		for _, id := range promoted {
			c.reg.Get(id).Gen = objmodel.Young
		}
		for _, id := range young {
			if o := c.reg.Get(id); o.Live() {
				o.Age--
			}
		}
		c.spare[comp], c.promoted = survivors, promoted
		return Pause{}, err
	}
	c.survBytes[comp] = survivorBytes
	c.young[comp], c.spare[comp] = survivors, young[:0]
	c.old = append(c.old, promoted...)
	if c.onPromote != nil {
		for _, id := range promoted {
			c.onPromote(id)
		}
	}
	c.promoted = promoted

	copied := survivorBytes + promotedBytes
	scanCost := sim.Time(scanned) * c.cfg.ScanCostPerObject
	copyCost := sim.Time(copied/1024) * c.cfg.CopyCostPerKB
	if c.copyFactor != nil {
		copyCost = sim.Time(float64(copyCost) * c.copyFactor[comp])
	}
	phases := Breakdown{
		Setup: c.cfg.FixedMinorPause,
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

// CollectFull runs a whole-heap mark-compact collection at virtual time
// now. Live young objects are promoted (HotSpot's full collection empties
// the young generation into old), dead objects of both generations are
// reclaimed, and the old generation is compacted.
func (c *Collector) CollectFull(now sim.Time) (Pause, error) {
	var (
		liveOldBytes  int64
		promotedBytes int64
		scanned       int64
		reclaimedObjs int64
		reclaimedB    int64
	)
	newOld := c.old[:0]
	for _, id := range c.old {
		o := c.reg.Get(id)
		if !o.Live() {
			reclaimedObjs++
			reclaimedB += int64(o.Size)
			continue
		}
		scanned++
		liveOldBytes += int64(o.Size)
		newOld = append(newOld, id)
	}
	c.old = newOld
	for comp := range c.young {
		for _, id := range c.young[comp] {
			o := c.reg.Get(id)
			if !o.Live() {
				reclaimedObjs++
				reclaimedB += int64(o.Size)
				continue
			}
			scanned++
			o.Gen = objmodel.Old
			o.Age = 0
			c.old = append(c.old, id)
			promotedBytes += int64(o.Size)
			liveOldBytes += int64(o.Size)
		}
		c.young[comp] = c.young[comp][:0]
		c.survBytes[comp] = 0
	}
	if err := c.heap.CommitFull(liveOldBytes); err != nil {
		return Pause{}, err // genuine OutOfMemoryError
	}
	markFixup := sim.Time(scanned) * c.cfg.ScanCostPerObject * 2 // mark + fixup passes
	compact := sim.Time(liveOldBytes/1024) * c.cfg.CompactCostPerKB
	phases := Breakdown{
		Setup: c.cfg.FixedFullPause,
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
	c.pauses = append(c.pauses, p)
	c.pauseHist.Add(int64(p.Duration))
	switch p.Kind {
	case Minor:
		c.stats.MinorCount++
		c.stats.MinorTime += p.Duration
	case Full:
		c.stats.FullCount++
		c.stats.FullTime += p.Duration
	case InitialMark, Remark:
		c.stats.ConcPauseTime += p.Duration
	}
	c.stats.PromotedBytes += p.PromotedBytes
	c.stats.CopiedBytes += p.CopiedBytes
	c.stats.ReclaimedB += p.ReclaimedB
}
