package workload

import "javasim/internal/sim"

// The six DaCapo-9.12 benchmark models. Parameter rationale per benchmark
// is documented on each constructor; the scalable/non-scalable split
// follows the paper's §II-C characterization. Magnitudes (unit counts,
// sizes) are scaled so that one run completes in a few hundred
// milliseconds of simulated time while keeping tens of minor collections —
// enough resolution for every figure without hour-long sweeps.

// SunflowSpec models sunflow, a parallel ray tracer: embarrassingly
// parallel tile rendering off a shared tile queue, allocation-heavy with
// small short-lived vector objects, and almost no shared-lock traffic
// beyond the queue and the per-frame barrier. Scalable.
func SunflowSpec() Spec {
	return Spec{
		Name:        "sunflow",
		TotalUnits:  14000,
		UnitCompute: 55 * sim.Microsecond,
		ComputeCV:   0.35,

		Distribution: Queue,

		AllocsPerUnit: 30,
		ObjSizeMeanB:  64,
		ObjSizeSigma:  0.5,
		AllocGap:      90 * sim.Nanosecond,

		FracIntraBurst:    0.78,
		IntraBurstMeanN:   1.5,
		FracCrossUnit:     0.15,
		CrossUnitMeanDist: 6,
		FracLongLived:     0.02,

		SharedLocks:    2, // image accumulation, scene stats
		LockOpsPerUnit: 0.15,
		LockHold:       400 * sim.Nanosecond,
		QueueLockHold:  150 * sim.Nanosecond,

		Phases:             50, // frames
		SequentialFraction: 0.02,

		MemoryIntensity: 0.3,
		HelperThreads:   2,
	}
}

// LusearchSpec models lusearch, a parallel text search over a Lucene
// index: a shared query queue, per-query string/token churn, and shared
// index-reader locks that heat up with concurrency. Scalable.
func LusearchSpec() Spec {
	return Spec{
		Name:        "lusearch",
		TotalUnits:  12000,
		UnitCompute: 40 * sim.Microsecond,
		ComputeCV:   0.5,

		Distribution: Queue,

		AllocsPerUnit: 22,
		ObjSizeMeanB:  96,
		ObjSizeSigma:  0.7,
		AllocGap:      100 * sim.Nanosecond,

		FracIntraBurst:    0.72,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.16,
		CrossUnitMeanDist: 6,
		FracLongLived:     0.03,

		SharedLocks:    4, // index readers, hit collectors
		LockOpsPerUnit: 0.8,
		LockHold:       500 * sim.Nanosecond,
		QueueLockHold:  200 * sim.Nanosecond,

		Phases:             80, // query batches
		SequentialFraction: 0.03,

		MemoryIntensity: 0.6,
		HelperThreads:   2,
	}
}

// XalanSpec models xalan, a parallel XSLT transformer: documents drawn
// from a hot shared work queue, DOM-node allocation churn, and a
// contended shared output lock. The paper's Figure 1d subject. Scalable.
func XalanSpec() Spec {
	return Spec{
		Name:        "xalan",
		TotalUnits:  12000,
		UnitCompute: 45 * sim.Microsecond,
		ComputeCV:   0.4,

		Distribution: Queue,

		AllocsPerUnit: 26,
		ObjSizeMeanB:  96,
		ObjSizeSigma:  0.6,
		AllocGap:      70 * sim.Nanosecond,

		FracIntraBurst:    0.80,
		IntraBurstMeanN:   1.5,
		FracCrossUnit:     0.15,
		CrossUnitMeanDist: 8,
		FracLongLived:     0.01,

		SharedLocks:    3, // output stream, stylesheet cache, pool
		LockOpsPerUnit: 1.0,
		LockHold:       700 * sim.Nanosecond,
		QueueLockHold:  250 * sim.Nanosecond,

		Phases:             100, // document batches
		SequentialFraction: 0.04,

		MemoryIntensity: 0.5,
		HelperThreads:   2,
	}
}

// H2Spec models h2, an in-memory SQL database running TPC-C-like
// transactions: work is skewed toward a few connection threads, and a
// coarse database latch serializes most of each transaction — the paper's
// canonical lock-limited non-scalable case.
func H2Spec() Spec {
	return Spec{
		Name:        "h2",
		TotalUnits:  9000,
		UnitCompute: 50 * sim.Microsecond,
		ComputeCV:   0.6,

		Distribution: Zipf,
		ZipfSkew:     1.6,

		AllocsPerUnit: 20,
		ObjSizeMeanB:  160,
		ObjSizeSigma:  0.8,
		AllocGap:      120 * sim.Nanosecond,

		FracIntraBurst:    0.55,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.18,
		CrossUnitMeanDist: 3,
		FracLongLived:     0.12, // cached rows and index nodes

		SharedLocks:    2, // database latch (hot), undo log
		LockOpsPerUnit: 1.0,
		LockHold:       28 * sim.Microsecond, // latch held for most of the txn
		QueueLockHold:  0,

		Phases:             20,
		SequentialFraction: 0.18,

		MemoryIntensity: 0.7,
		HelperThreads:   2,
	}
}

// EclipseSpec models eclipse, the IDE's JDT compile-and-index workload: a
// pipeline where 3-4 stage threads (parser, resolver, indexer) do nearly
// all the work regardless of the configured thread count, with stage
// hand-off locks and a large long-lived AST/metadata footprint.
// Non-scalable — the paper's Figure 1c subject.
func EclipseSpec() Spec {
	return Spec{
		Name:        "eclipse",
		TotalUnits:  10000,
		UnitCompute: 45 * sim.Microsecond,
		ComputeCV:   0.7,

		Distribution: Capped,
		Cap:          4,

		AllocsPerUnit: 24,
		ObjSizeMeanB:  128,
		ObjSizeSigma:  1,
		AllocGap:      110 * sim.Nanosecond,

		FracIntraBurst:    0.62,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.14,
		CrossUnitMeanDist: 3,
		FracLongLived:     0.18, // ASTs, type bindings, index entries

		SharedLocks:    4, // stage hand-offs
		LockOpsPerUnit: 2.0,
		LockHold:       300 * sim.Nanosecond,
		QueueLockHold:  0,

		Phases:             25, // build rounds
		SequentialFraction: 0.30,

		MemoryIntensity: 0.6,
		HelperThreads:   2,
	}
}

// JythonSpec models jython, the Python interpreter on the JVM running
// pybench: interpretation is effectively serial — a couple of threads do
// all the work under an interpreter lock — with heavy small-object boxing
// churn. Non-scalable.
func JythonSpec() Spec {
	return Spec{
		Name:        "jython",
		TotalUnits:  10000,
		UnitCompute: 32 * sim.Microsecond,
		ComputeCV:   0.4,

		Distribution: Capped,
		Cap:          3,

		AllocsPerUnit: 28,
		ObjSizeMeanB:  72,
		ObjSizeSigma:  0.6,
		AllocGap:      80 * sim.Nanosecond,

		FracIntraBurst:    0.72,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.08,
		CrossUnitMeanDist: 2,
		FracLongLived:     0.05,

		SharedLocks:    1, // interpreter state lock
		LockOpsPerUnit: 1.0,
		LockHold:       20 * sim.Microsecond,
		QueueLockHold:  0,

		Phases:             10,
		SequentialFraction: 0.45,

		MemoryIntensity: 0.4,
		HelperThreads:   2,
	}
}

// Scalable reports the paper's classification for a benchmark name.
func Scalable(name string) bool {
	switch name {
	case "sunflow", "lusearch", "xalan":
		return true
	default:
		return false
	}
}
