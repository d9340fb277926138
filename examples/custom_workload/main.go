// Custom workload: build a benchmark model from scratch with the public
// Spec API, sweep it, and let the framework classify it — the path a
// downstream user takes to study their *own* application's scalability
// factors.
//
// The example constructs two hypothetical applications: a lock-free
// analytics pipeline (should scale) and a config-store with one global
// write lock (should not), then runs the paper's methodology on both. It
// also exercises the bundled "server" extension workload.
package main

import (
	"context"
	"fmt"
	"log"

	"javasim"
)

// analyticsSpec is an embarrassingly parallel aggregation: uniform work,
// tiny critical sections, short-lived records.
func analyticsSpec() javasim.Spec {
	return javasim.Spec{
		Name:        "analytics",
		TotalUnits:  8000,
		UnitCompute: 50 * javasim.Microsecond,
		ComputeCV:   0.3,

		AllocsPerUnit: 20,
		ObjSizeMeanB:  96,
		ObjSizeSigma:  0.6,
		AllocGap:      80 * javasim.Nanosecond,

		FracIntraBurst:    0.8,
		IntraBurstMeanN:   2,
		FracCrossUnit:     0.1,
		CrossUnitMeanDist: 3,
		FracLongLived:     0.02,

		SharedLocks:    2,
		LockOpsPerUnit: 0.2,
		LockHold:       300 * javasim.Nanosecond,
		QueueLockHold:  150 * javasim.Nanosecond,

		Phases:             40,
		SequentialFraction: 0.02,
		MemoryIntensity:    0.4,
		HelperThreads:      2,
	}
}

// configStoreSpec serializes every update behind one global lock held for
// most of each operation — a textbook non-scalable design.
func configStoreSpec() javasim.Spec {
	s := analyticsSpec()
	s.Name = "config-store"
	s.SharedLocks = 1
	s.LockOpsPerUnit = 1
	s.LockHold = 40 * javasim.Microsecond // ~80% of the unit under the lock
	s.SequentialFraction = 0.1
	return s
}

// eng sweeps every custom workload through one bounded worker pool.
var eng = javasim.NewEngine(javasim.WithParallelism(4))

func study(spec javasim.Spec) {
	sw, err := eng.Sweep(context.Background(), spec, javasim.SweepConfig{
		ThreadCounts: []int{4, 8, 16, 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	c := sw.Classify(2.0)
	f := sw.ComputeFactors()
	fmt.Printf("%-14s max speedup %.2fx @%d threads — %s\n",
		spec.Name, c.MaxSpeedup, c.AtThreads,
		map[bool]string{true: "SCALABLE", false: "NON-SCALABLE"}[c.Scalable])
	fmt.Printf("               amdahl-f=%.2f contention-growth=%.1fx gc-share %.1f%%->%.1f%%\n",
		f.SequentialFraction, f.ContentionGrowth,
		100*f.GCShareFirst, 100*f.GCShareLast)
}

func main() {
	// Registering a custom model makes it resolvable by name everywhere —
	// scenario plans, cmd/javasim -workload, the experiment suite.
	if err := javasim.RegisterWorkload(analyticsSpec()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("classifying custom workloads with the paper's methodology:")
	analytics, _ := javasim.LookupWorkload("analytics")
	study(analytics)
	study(configStoreSpec())

	server, _ := javasim.LookupWorkload("server")
	study(server.Scale(0.5))

	fmt.Println("\nthe framework needs only a Spec: work distribution, allocation")
	fmt.Println("profile, death mixture, and lock pattern — classification, factor")
	fmt.Println("decomposition, and every figure generator then work unchanged.")
}
