// Plan file: the declarative route through the framework. The experiment
// matrix — which workloads, which thread counts, which JVM-config
// ablations, which reports — lives in plan.json as data, not Go code.
// javasim.LoadPlan validates it (unknown fields, unknown workload
// references, and malformed scenarios are rejected with precise errors),
// and Engine.RunPlan executes every scenario through the bounded worker
// pool, deduplicating and memoizing overlapping points.
//
// The same file runs unchanged from the command line:
//
//	javasim -plan examples/plan_file/plan.json
//
// and the paper's entire figure suite is itself such a plan — see
// javasim.PaperPlan.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"
	"os"
	"strings"

	"javasim"
)

//go:embed plan.json
var planJSON string

func main() {
	plan, err := javasim.LoadPlan(strings.NewReader(planJSON))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan %q: %d scenarios, %d reports\n\n", plan.Name, len(plan.Scenarios), len(plan.Reports))

	eng := javasim.NewEngine(javasim.WithParallelism(4))
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}

	for i, t := range pr.Tables() {
		if i > 0 {
			fmt.Println()
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// The scenario results stay programmatically accessible alongside the
	// rendered tables — here, the raw sweep behind the "store" rows.
	store := pr.Scenario("store").Sweep()
	c := store.Classify(2.0)
	fmt.Printf("\nstore verdict: max speedup %.2fx @%d threads — %s\n",
		c.MaxSpeedup, c.AtThreads,
		map[bool]string{true: "SCALABLE", false: "NON-SCALABLE"}[c.Scalable])

	st := eng.CacheStats()
	fmt.Printf("engine: %d simulations, %d cache hits\n", st.Misses, st.MemoryHits+st.DiskHits+st.Shared)
}
