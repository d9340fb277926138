package workload

import "javasim/internal/sim"

// Extension workloads beyond the paper's six benchmarks. They are not part
// of PaperSet() — the paper's experiment set — but are registered in the
// workload Registry and resolve by name for the future-work
// studies.

// ServerSpec models the "large multi-threaded server application" the
// paper's §IV motivates for its compartmentalized-heap proposal: a
// steady-state request-serving workload with a shared accept queue, no
// phase barriers, per-request allocation churn, a hot logging lock, and a
// session cache that accumulates long-lived state. Scalable, but with a
// growing mature-generation footprint that makes full-collection pauses
// the pain point compartments are meant to relieve.
func ServerSpec() Spec {
	return Spec{
		Name:        "server",
		TotalUnits:  16000, // requests
		UnitCompute: 30 * sim.Microsecond,
		ComputeCV:   0.6,

		Distribution: Queue,

		AllocsPerUnit: 25,
		ObjSizeMeanB:  128,
		ObjSizeSigma:  0.8,
		AllocGap:      90 * sim.Nanosecond,

		FracIntraBurst:    0.62,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.20, // response buffers pending flush
		CrossUnitMeanDist: 6,
		FracLongLived:     0.10, // session cache entries

		SharedLocks:    3, // session table, logger (hot), metrics
		LockOpsPerUnit: 1.2,
		LockHold:       600 * sim.Nanosecond,
		QueueLockHold:  180 * sim.Nanosecond,

		Phases:             0, // steady state: no barriers
		SequentialFraction: 0,

		MemoryIntensity: 0.6,
		HelperThreads:   2,
	}
}

// ServerContendedSpec is the server model with the hot-lock pressure of
// the open-system studies in closed-loop form: one shared monitor, a
// longer hold, and a 5µs contended-unpark round trip billed per
// contention event (ContentionCost — zero in the base server model, so
// that model stays seed-identical to its pre-traffic calibration). Lock
// disciplines that avoid contention events — Dice & Kogan's restricted
// policy above all — buy back real time here, which is what makes the
// policy ablation visible to the analytic USL fit: restricted should
// fit a lower sigma than fifo.
func ServerContendedSpec() Spec {
	s := ServerSpec()
	s.Name = "server-contended"
	s.SharedLocks = 1
	s.LockOpsPerUnit = 2.0
	s.LockHold = 2 * sim.Microsecond
	s.ContentionCost = 5 * sim.Microsecond
	return s
}
