// Scalability study: the paper's core experiment end to end. Sweeps all
// six DaCapo models across thread counts with cores = threads, classifies
// each as scalable or non-scalable (§II-C), and prints the factor
// decomposition that explains *why* — sequential fraction, lock
// contention growth, GC share growth, lifespan shift, and work imbalance.
//
// The whole study is one selection of javasim.PaperPlan run through one
// javasim.Engine: sweeps execute on a bounded worker pool, an observer
// streams progress as sweeps complete, and the two tables plus the
// drill-down share one set of sweeps — the engine simulates each
// (workload, thread count) exactly once.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"javasim"
)

func main() {
	ctx := context.Background()
	eng := javasim.NewEngine(
		javasim.WithParallelism(4),
		javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
			if ev.Kind == javasim.SweepDone {
				fmt.Fprintf(os.Stderr, "sweep done: %s\n", ev.Workload)
			}
		})),
	)

	// Scale 0.5 halves each workload so the whole study runs in seconds;
	// pass Scale: 1 for the full-size runs. Selecting the two tables
	// from the paper plan keeps only the six workload sweeps they read.
	plan, err := javasim.PaperPlan(javasim.ExperimentConfig{
		ThreadCounts: []int{4, 8, 16, 32, 48},
		Scale:        0.5,
		Seed:         42,
	}).Select("ClassificationTable", "FactorsTable")
	if err != nil {
		log.Fatal(err)
	}
	pr, err := eng.RunPlan(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range pr.Reports {
		t.WriteASCII(os.Stdout)
		fmt.Println()
	}

	// Drill into one scalable workload: show the paper's headline series
	// from the sweep the tables above were rendered from.
	sw := pr.Scenario("xalan").Sweep()
	fmt.Println("xalan detail (speedup | mutator | gc | contentions | objects dying <1KB):")
	speedups := sw.Curve().Speedups()
	cdf := sw.CDFBelow(1024)
	for i, p := range sw.Points {
		fmt.Printf("  t=%-3d %5.2fx  %10v  %10v  %8d  %5.1f%%\n",
			p.Threads, speedups[i],
			p.Result.MutatorTime, p.Result.GCTime,
			p.Result.LockContentions, 100*cdf[i])
	}

	st := eng.CacheStats()
	fmt.Printf("\nengine: %d simulations, %d cache hits\n", st.Misses, st.MemoryHits+st.DiskHits+st.Shared)
}
