// Package workload models the six DaCapo-9.12 benchmarks the paper
// measures (§II-C): sunflow, lusearch, and xalan (the scalable trio) and
// h2, eclipse, and jython (the non-scalable trio).
//
// A workload is a Spec: a parameterized description of the benchmark's
// structure — how work units are distributed across threads, how much each
// unit computes, what it allocates, when those objects die, and which
// shared locks it takes. The spec parameters are chosen to mirror each
// benchmark's published character (see DESIGN.md §5); the paper's observed
// behaviors (lock scaling, lifespan stretching, GC growth) are not encoded
// directly but emerge from running the spec on the simulated JVM.
//
// Two invariants from the paper's methodology hold for every spec: the
// total number of work units — and therefore objects allocated and heap
// required — is independent of the thread count, and only the division of
// those units across threads changes.
//
// Every spec the framework can run lives in the workload registry: the
// six benchmarks and the bundled extensions are pre-registered, custom
// models join through Registry, and consumers resolve names there (or
// through a Ref, the registry-or-inline reference that scenario plans
// serialize).
package workload

import (
	"fmt"
	"math"

	"javasim/internal/sim"
)

// DistKind selects how work units are divided among mutator threads.
type DistKind uint8

const (
	// Queue distributes units through a shared work queue: any thread that
	// asks gets the next unit, guarded by the queue lock. This yields the
	// near-uniform per-thread shares the paper observes for xalan,
	// lusearch, and sunflow.
	Queue DistKind = iota
	// Zipf statically assigns units with a Zipf-skewed share per thread,
	// concentrating work in a few threads (h2's transaction affinity).
	Zipf
	// Capped statically assigns units round-robin over at most Cap
	// threads; remaining threads receive nothing (eclipse's pipeline
	// stages, jython's interpreter threads).
	Capped
)

// String names the distribution.
func (d DistKind) String() string {
	switch d {
	case Queue:
		return "queue"
	case Zipf:
		return "zipf"
	case Capped:
		return "capped"
	default:
		return "invalid"
	}
}

// DeathMode says when an allocated object dies.
type DeathMode uint8

const (
	// DieAfterOwnAllocs kills the object after its allocating thread
	// performs N more allocations — the tight intra-burst reuse that gives
	// Java its "most objects die young" profile.
	DieAfterOwnAllocs DeathMode = iota
	// DieAtUnitsAhead kills the object when its thread completes the unit
	// N units after the current one (N = 0 means end of current unit).
	DieAtUnitsAhead
	// Immortal objects survive until program exit.
	Immortal
)

// DeathSpec pairs a mode with its parameter.
type DeathSpec struct {
	Mode DeathMode
	N    int32
}

// OpKind is one step inside a work unit.
type OpKind uint8

const (
	// OpCompute burns CPU for Dur.
	OpCompute OpKind = iota
	// OpAlloc allocates Size bytes with the given death schedule, then
	// burns Dur (the intra-burst allocation gap).
	OpAlloc
	// OpAcquire takes shared lock Lock.
	OpAcquire
	// OpRelease releases shared lock Lock.
	OpRelease
)

// NumAllocSites is the number of distinct allocation sites a workload
// exhibits. Sites correlate with object lifetime class — the property
// that makes allocation-site pretenuring work in real JVMs — with a
// deliberate noise floor so the correlation is strong but not an oracle.
const NumAllocSites = 24

// Op is one interpreted step of a work unit.
type Op struct {
	Kind  OpKind
	Dur   sim.Time
	Size  int32
	Death DeathSpec
	Lock  int
	// Site is the allocation-site identifier for OpAlloc (0..NumAllocSites).
	Site int32
}

// Unit is one work item: an op sequence the VM interprets.
type Unit struct {
	Ops []Op
}

// LockSpec names a shared lock the workload uses.
type LockSpec struct {
	Name string
}

// Spec describes one benchmark. Construct via the named constructors
// (XalanSpec etc.) or fill fields directly for custom studies.
type Spec struct {
	// Name is the benchmark name ("xalan").
	Name string
	// TotalUnits is the number of work units per run, independent of the
	// thread count (paper §II-C).
	TotalUnits int
	// UnitCompute is the mean CPU time per unit; actual durations are
	// lognormal with coefficient of variation ComputeCV.
	UnitCompute sim.Time
	ComputeCV   float64

	// Distribution divides units across threads. ZipfSkew parameterizes
	// Zipf; Cap parameterizes Capped.
	Distribution DistKind
	ZipfSkew     float64
	Cap          int

	// AllocsPerUnit is the mean number of objects allocated per unit.
	AllocsPerUnit int
	// ObjSizeMeanB is the mean object size in bytes; sizes are lognormal
	// with sigma ObjSizeSigma, clamped to [16, 8192].
	ObjSizeMeanB int
	ObjSizeSigma float64
	AllocGap     sim.Time // compute time between consecutive allocations

	// Death behavior fractions; they must sum to <= 1, the remainder is
	// DieAtUnitsAhead with distance 0 (end of unit).
	FracIntraBurst    float64 // DieAfterOwnAllocs, N ~ 1 + Geom(IntraBurstMeanN)
	FracCrossUnit     float64 // DieAtUnitsAhead, N ~ 1 + Geom(CrossUnitMeanDist)
	FracLongLived     float64 // Immortal
	IntraBurstMeanN   float64
	CrossUnitMeanDist float64

	// SharedLocks is the number of shared resource locks beyond the
	// queue/barrier infrastructure. LockOpsPerUnit is the mean number of
	// acquire/release pairs per unit, spread over the shared locks with a
	// Zipf(1.2) popularity skew. LockHold is the critical-section length.
	SharedLocks    int
	LockOpsPerUnit float64
	LockHold       sim.Time
	// QueueLockHold is the dequeue cost under the work-queue lock (Queue
	// distribution only).
	QueueLockHold sim.Time
	// ContentionCost is the CPU a thread burns waking from a contended
	// slow-path park (the monitor-contended-enter probe of Figure 1b):
	// the unpark syscall, scheduler latency, and cache refill of a real
	// park/unpark round trip. Zero — the default everywhere — keeps lock
	// handoff free, so all work-conserving disciplines finish together;
	// nonzero makes the probe count a time cost, separating disciplines
	// that avoid the slow path (restricted, spin-then-park) from those
	// that take it on every contended acquire.
	ContentionCost sim.Time

	// Phases is the number of barrier-synchronized phases; all active
	// threads rendezvous Phases times per run, and the paper's scalable
	// benchmarks owe much of their thread-linear lock growth to this
	// coordination.
	Phases int
	// SequentialFraction is the share of total compute executed by a
	// single thread at phase boundaries (the Amdahl term).
	SequentialFraction float64

	// MemoryIntensity in [0,1] scales NUMA sensitivity of compute.
	MemoryIntensity float64
	// HelperThreads is the number of JVM background threads (JIT,
	// profiler) the VM spawns alongside the mutators.
	HelperThreads int

	// MinHeapMB optionally pins the minimum heap requirement; when zero it
	// is derived from the long-lived footprint plus working set.
	MinHeapMB int
}

// Validate reports structural errors in the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.TotalUnits <= 0 {
		return fmt.Errorf("workload %s: TotalUnits = %d", s.Name, s.TotalUnits)
	}
	if s.UnitCompute <= 0 {
		return fmt.Errorf("workload %s: UnitCompute = %v", s.Name, s.UnitCompute)
	}
	if s.AllocsPerUnit < 0 || s.ObjSizeMeanB < 16 && s.AllocsPerUnit > 0 {
		return fmt.Errorf("workload %s: bad allocation profile", s.Name)
	}
	sum := s.FracIntraBurst + s.FracCrossUnit + s.FracLongLived
	if sum < 0 || sum > 1 {
		return fmt.Errorf("workload %s: death fractions sum to %v", s.Name, sum)
	}
	switch s.Distribution {
	case Zipf:
		if s.ZipfSkew <= 0 {
			return fmt.Errorf("workload %s: Zipf distribution needs ZipfSkew > 0", s.Name)
		}
	case Capped:
		if s.Cap <= 0 {
			return fmt.Errorf("workload %s: Capped distribution needs Cap > 0", s.Name)
		}
	}
	if s.SequentialFraction < 0 || s.SequentialFraction >= 1 {
		return fmt.Errorf("workload %s: SequentialFraction = %v", s.Name, s.SequentialFraction)
	}
	if s.ContentionCost < 0 {
		return fmt.Errorf("workload %s: ContentionCost = %v", s.Name, s.ContentionCost)
	}
	return nil
}

// MinHeapBytes returns the benchmark's minimum heap requirement: either the
// pinned MinHeapMB or an estimate from the immortal footprint plus a
// per-thread working-set allowance.
func (s *Spec) MinHeapBytes() int64 {
	if s.MinHeapMB > 0 {
		return int64(s.MinHeapMB) << 20
	}
	totalAlloc := s.TotalAllocBytes()
	longLived := int64(float64(totalAlloc) * s.FracLongLived)
	// The knee below which the run cannot proceed: immortal data plus a
	// modest nursery to make allocation progress.
	min := longLived + totalAlloc/64 + (256 << 10)
	return min
}

// TotalAllocBytes estimates the run's total allocation volume.
func (s *Spec) TotalAllocBytes() int64 {
	return int64(s.TotalUnits) * int64(s.AllocsPerUnit) * int64(s.ObjSizeMeanB)
}

// ObjectBound returns a count the objects allocated by n work units stay
// within: the realized mean allocations per unit times n, plus six
// standard deviations of their sum. A unit's count is uniform over the
// span+1 integers from AllocsPerUnit - span/2, span = AllocsPerUnit/2
// (see draw), so the mean is AllocsPerUnit + ½ when span is odd.
func (s *Spec) ObjectBound(n int) int {
	span := s.AllocsPerUnit / 2
	lo := s.AllocsPerUnit - span/2
	units := float64(n)
	sd := math.Sqrt(float64(span*(span+2)) / 12)
	bound := units*(float64(lo)+float64(span)/2) + 6*sd*math.Sqrt(units)
	return int(math.Ceil(min(bound, units*float64(lo+span))))
}

// Scale returns a copy with TotalUnits (and Phases, proportionally)
// multiplied by f — used to shrink runs for tests and benchmarks. The
// behavioral parameters are untouched.
func (s Spec) Scale(f float64) Spec {
	if f <= 0 {
		panic("workload: Scale factor must be positive")
	}
	s.TotalUnits = int(math.Max(1, float64(s.TotalUnits)*f))
	if s.Phases > 0 {
		s.Phases = int(math.Max(1, float64(s.Phases)*f))
	}
	return s
}

// unitsFor computes the static per-thread unit assignment for non-queue
// distributions over n threads.
func (s *Spec) unitsFor(n int) []int {
	out := make([]int, n)
	switch s.Distribution {
	case Capped:
		active := s.Cap
		if active > n {
			active = n
		}
		base := s.TotalUnits / active
		rem := s.TotalUnits % active
		for i := 0; i < active; i++ {
			out[i] = base
			if i < rem {
				out[i]++
			}
		}
	case Zipf:
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), s.ZipfSkew)
			sum += weights[i]
		}
		assigned := 0
		for i := range weights {
			out[i] = int(float64(s.TotalUnits) * weights[i] / sum)
			assigned += out[i]
		}
		out[0] += s.TotalUnits - assigned // rounding remainder to the busiest
	default:
		panic("workload: unitsFor on queue distribution")
	}
	return out
}

// Run is the per-execution state of a workload: the unit source the VM
// draws from. It is not safe for concurrent use; the simulation kernel is
// single-threaded.
type Run struct {
	spec    Spec
	seed    uint64
	threads int
	rng     *sim.Rand
	siteRng *sim.Rand // dedicated stream for allocation-site draws
	lockPop *sim.Zipf // popularity skew over shared locks

	// Lognormal parameters are pure functions of the spec, hoisted out of
	// draw so the per-unit cost is the draws alone, not the Log/Sqrt
	// tower rederiving constants. The hoisted values are computed by the
	// same expressions that once ran per unit, so draws are bit-identical.
	unitMean  float64
	unitMu    float64
	unitSigma float64
	sizeMu    float64
	sizeSigma float64

	queueLeft  int   // Queue distribution: shared pool
	staticLeft []int // static distributions: per-thread pools

	unitsTaken []int64 // per-thread work counter, for the §III table

	// draws is the scratch record draw fills for each unit. scratch is
	// each thread's recycled op buffer (see Take). tape/tapePos: optional
	// tape unit source (see AttachTape); chunk is the tape chunk holding
	// unit tapePos.
	draws   unitDraws
	scratch [][]Op
	tape    *Tape
	tapePos int
	chunk   *tapeChunk
}

// unitDraws is one unit's random draws: everything its op sequence takes
// from the run's RNG streams. The spec supplies the rest (AllocGap,
// LockHold), so draws plus spec rebuild the unit exactly (see emit).
type unitDraws struct {
	budget sim.Time // compute budget, split evenly around the burst
	allocs []uint32 // one packed draw per allocation (packAlloc)
	locks  []int    // the shared lock of each critical section
}

// NewRun instantiates the spec for a given mutator thread count and seed.
func NewRun(spec Spec, threads int, seed uint64) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if threads < 1 {
		return nil, fmt.Errorf("workload %s: threads = %d", spec.Name, threads)
	}
	rng := sim.NewRand(seed)
	r := &Run{
		spec:       spec,
		seed:       seed,
		threads:    threads,
		rng:        rng,
		siteRng:    rng.Fork(0x517E5),
		unitsTaken: make([]int64, threads),
		scratch:    make([][]Op, threads),
	}
	if spec.SharedLocks > 0 {
		r.lockPop = sim.NewZipf(r.rng.Fork(0xC0FFEE), spec.SharedLocks, 1.2)
	}
	cv := spec.ComputeCV
	if cv <= 0 {
		cv = 0.3
	}
	r.unitMean = float64(spec.UnitCompute)
	r.unitSigma = math.Sqrt(math.Log(1 + cv*cv))
	r.unitMu = math.Log(r.unitMean) - r.unitSigma*r.unitSigma/2
	r.sizeSigma = spec.ObjSizeSigma
	if r.sizeSigma <= 0 {
		r.sizeSigma = 0.7
	}
	if spec.ObjSizeMeanB > 0 {
		r.sizeMu = math.Log(float64(spec.ObjSizeMeanB)) - r.sizeSigma*r.sizeSigma/2
	}
	if spec.Distribution == Queue {
		r.queueLeft = spec.TotalUnits
	} else {
		r.staticLeft = spec.unitsFor(threads)
	}
	return r, nil
}

// Spec returns the workload spec.
func (r *Run) Spec() Spec { return r.spec }

// Threads returns the mutator thread count.
func (r *Run) Threads() int { return r.threads }

// UnitsTaken returns the per-thread work counts so far.
func (r *Run) UnitsTaken() []int64 {
	out := make([]int64, len(r.unitsTaken))
	copy(out, r.unitsTaken)
	return out
}

// Remaining returns the number of unassigned units.
func (r *Run) Remaining() int {
	if r.spec.Distribution == Queue {
		return r.queueLeft
	}
	n := 0
	for _, v := range r.staticLeft {
		n += v
	}
	return n
}

// Take hands thread tid its next work unit. ok is false when the thread
// has no more work (for Queue, when the shared pool is empty). Each
// thread has one op buffer, so the unit's ops stay valid only until
// thread tid takes its next unit; a caller that keeps units must copy
// them.
func (r *Run) Take(tid int) (Unit, bool) {
	if r.spec.Distribution == Queue {
		if r.queueLeft == 0 {
			return Unit{}, false
		}
		r.queueLeft--
	} else {
		if r.staticLeft[tid] == 0 {
			return Unit{}, false
		}
		r.staticLeft[tid]--
	}
	r.unitsTaken[tid]++
	return r.nextUnit(tid), true
}

// TakeOpen hands thread tid a generated unit without drawing down the
// run's unit pools — open-system mode, where the arrival process (not a
// fixed total) governs how many units execute. Units draw from the same
// RNG stream as Take, so a given draw sequence yields identical units
// in both modes. As with Take, the unit's ops stay valid only until
// thread tid takes its next unit.
func (r *Run) TakeOpen(tid int) Unit {
	r.unitsTaken[tid]++
	return r.nextUnit(tid)
}

// AttachTape switches the run's unit source to a warm-start tape. The
// tape must have been built from the same spec and seed; ok reports
// whether it matched (on false the run is unchanged and will generate
// live). Replay is bit-identical to live generation: unit k of a run is
// a pure function of (spec, seed, k) — generation ignores the taking
// thread — and once the tape is exhausted the run resumes live drawing
// from cloned end-of-tape RNG states, exactly where a never-taped run's
// streams would stand.
func (r *Run) AttachTape(t *Tape) bool {
	if t == nil || t.spec != r.spec || t.seed != r.seed {
		return false
	}
	r.tape = t
	r.tapePos = 0
	return true
}

// nextUnit decodes the next unit from the tape when one is attached and
// unexhausted, otherwise generates live.
func (r *Run) nextUnit(tid int) Unit {
	if t := r.tape; t != nil {
		if r.tapePos < t.n {
			k := r.tapePos % tapeChunkUnits
			if k == 0 {
				r.chunk = t.chunk(r.tapePos / tapeChunkUnits)
			}
			budget, allocs, tapeLocks := r.chunk.unit(k)
			r.tapePos++
			locks := r.draws.locks[:0]
			for _, lk := range tapeLocks {
				locks = append(locks, int(lk))
			}
			r.draws.locks = locks
			return r.emit(tid, budget, allocs, locks)
		}
		r.detachTape()
	}
	r.draw()
	return r.emit(tid, r.draws.budget, r.draws.allocs, r.draws.locks)
}

// detachTape switches an exhausted tape replay back to live generation,
// resuming each RNG stream from the position it held when the tape's
// last unit was generated.
func (r *Run) detachTape() {
	t := r.tape
	r.tape, r.chunk = nil, nil
	r.rng = t.endRng.Clone()
	r.siteRng = t.endSiteRng.Clone()
	if t.endLockPop != nil {
		r.lockPop = t.endLockPop.Clone()
	}
}

// clampSize bounds object sizes to a Java-plausible range.
func clampSize(v float64) int32 {
	if v < 16 {
		return 16
	}
	if v > 8192 {
		return 8192
	}
	return int32(v)
}

// draw makes one unit's random draws into r.draws, in the calibrated
// stream order: compute total, allocation count and lock-op count, then
// per allocation its size, death and site, then per critical section its
// lock.
func (r *Run) draw() {
	s := &r.spec
	rng := r.rng

	// Unit compute duration: lognormal around the mean (parameters hoisted
	// to NewRun).
	total := sim.Time(rng.LogNormal(r.unitMu, r.unitSigma))
	if total < sim.Time(r.unitMean/8) {
		total = sim.Time(r.unitMean / 8)
	}

	allocs := s.AllocsPerUnit
	if allocs > 0 {
		// Mild per-unit variation: ±25%.
		span := allocs / 2
		if span > 0 {
			allocs = allocs - span/2 + rng.Intn(span+1)
		}
		if allocs < 1 {
			allocs = 1
		}
	}
	gapTotal := sim.Time(allocs) * s.AllocGap
	computeBudget := total - gapTotal
	if computeBudget < total/4 {
		computeBudget = total / 4
	}

	lockOps := 0
	if s.LockOpsPerUnit > 0 {
		base := int(s.LockOpsPerUnit)
		lockOps = base
		if rng.Float64() < s.LockOpsPerUnit-float64(base) {
			lockOps++
		}
	}

	d := &r.draws
	d.budget = computeBudget
	d.allocs = d.allocs[:0]
	for i := 0; i < allocs; i++ {
		// Main-stream draw order (size, then death) is part of the
		// calibrated behavior; sites draw from their own stream.
		size := clampSize(rng.LogNormal(r.sizeMu, r.sizeSigma))
		death := r.sampleDeath()
		d.allocs = append(d.allocs, packAlloc(size, death, r.sampleSite(death)))
	}
	d.locks = d.locks[:0]
	for i := 0; i < lockOps; i++ {
		lk := 0
		if r.lockPop != nil {
			lk = r.lockPop.Next()
		}
		d.locks = append(d.locks, lk)
	}
}

// emit lays one unit's op sequence out from its draws: half the compute
// budget, the allocation burst, the critical sections against shared
// locks, then the other half. The ops go into tid's recycled buffer.
func (r *Run) emit(tid int, budget sim.Time, allocs []uint32, locks []int) Unit {
	s := &r.spec
	ops := r.scratch[tid][:0]
	ops = append(ops, Op{Kind: OpCompute, Dur: budget / 2})
	for _, w := range allocs {
		ops = append(ops, unpackAlloc(w, s.AllocGap))
	}
	for _, lk := range locks {
		ops = append(ops,
			Op{Kind: OpAcquire, Lock: lk},
			Op{Kind: OpCompute, Dur: s.LockHold},
			Op{Kind: OpRelease, Lock: lk},
		)
	}
	ops = append(ops, Op{Kind: OpCompute, Dur: budget / 2})
	r.scratch[tid] = ops // keep grown capacity for tid's next unit
	return Unit{Ops: ops}
}

// An allocation draw packs into one uint32: size in bits 0-13 (clampSize
// bounds it to 16..8192), death mode in bits 14-15, death N in bits 16-21
// (sampleDeath caps it at 48) and site in bits 22-26 (< NumAllocSites).
// Every draw fits by construction.
func packAlloc(size int32, d DeathSpec, site int32) uint32 {
	return uint32(size) | uint32(d.Mode)<<14 | uint32(d.N)<<16 | uint32(site)<<22
}

// unpackAlloc rebuilds the OpAlloc of a packed draw.
func unpackAlloc(w uint32, gap sim.Time) Op {
	return Op{
		Kind:  OpAlloc,
		Dur:   gap,
		Size:  int32(w & 0x3FFF),
		Death: DeathSpec{Mode: DeathMode(w >> 14 & 0x3), N: int32(w >> 16 & 0x3F)},
		Site:  int32(w >> 22 & 0x1F),
	}
}

// sampleSite assigns an allocation site correlated with the object's
// lifetime class. Bands are sized by typical traffic volume (intra-burst
// churn dominates real allocation profiles) so that per-site purity stays
// high even for rare lifetime classes: sites 0-15 are intra-burst churn,
// 16-21 cross-unit, 22-23 long-lived. A 2% uniform cross-talk keeps
// site-based lifetime prediction strong but fallible, as in real
// programs. Sites draw from their own forked RNG stream, so enabling or
// ignoring them never perturbs the rest of the workload.
func (r *Run) sampleSite(d DeathSpec) int32 {
	if r.siteRng.Float64() < 0.02 {
		return int32(r.siteRng.Intn(NumAllocSites))
	}
	switch d.Mode {
	case DieAfterOwnAllocs:
		return int32(r.siteRng.Intn(16))
	case DieAtUnitsAhead:
		return 16 + int32(r.siteRng.Intn(6))
	default:
		return 22 + int32(r.siteRng.Intn(2))
	}
}

// sampleDeath draws a death schedule from the spec's mixture.
func (r *Run) sampleDeath() DeathSpec {
	s := &r.spec
	u := r.rng.Float64()
	switch {
	case u < s.FracIntraBurst:
		mean := s.IntraBurstMeanN
		if mean <= 0 {
			mean = 3
		}
		n := 1 + r.rng.Geometric(1/(1+mean))
		if n > 12 {
			n = 12
		}
		return DeathSpec{Mode: DieAfterOwnAllocs, N: int32(n)}
	case u < s.FracIntraBurst+s.FracCrossUnit:
		mean := s.CrossUnitMeanDist
		if mean <= 0 {
			mean = 2
		}
		n := 1 + r.rng.Geometric(1/(1+mean))
		if n > 48 {
			n = 48
		}
		return DeathSpec{Mode: DieAtUnitsAhead, N: int32(n)}
	case u < s.FracIntraBurst+s.FracCrossUnit+s.FracLongLived:
		return DeathSpec{Mode: Immortal}
	default:
		return DeathSpec{Mode: DieAtUnitsAhead, N: 0} // end of current unit
	}
}
