// Example gc_policies A/Bs the four collection disciplines on the same
// GC-bound workload (xalan, the paper's clearest lifespan-stretch case)
// at a high thread count: the paper's stop-the-world throughput collector
// ("stw-serial"), an explicitly synchronized parallel collector whose
// per-worker coordination tax grows with the core count ("stw-parallel",
// the CMSSW-style GC-bound scaling collapse), a mostly-concurrent
// collector that converts pause time into background CPU ("concurrent"),
// and per-thread-group NUMA-homed heap compartments ("compartment", the
// paper's §IV suggestion 2). The printed per-phase split shows *where*
// each discipline spends its stop-the-world time.
package main

import (
	"context"
	"fmt"
	"log"

	"javasim"
)

const threads = 32

func main() {
	eng := javasim.NewEngine()
	spec, ok := javasim.LookupWorkload("xalan")
	if !ok {
		log.Fatal("xalan model missing")
	}
	spec = spec.Scale(0.1)

	results := make(map[string]*javasim.Result)
	for _, policy := range javasim.GCPolicyNames() {
		cfg := javasim.Config{Threads: threads, Seed: 42, HeapFactor: 1.6, GCPolicy: policy}
		if policy == javasim.GCPolicyConcurrent {
			cfg.GC.TriggerRatio = 0.5
		}
		res, err := eng.Run(context.Background(), spec, cfg)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		results[policy] = res
	}

	fmt.Printf("xalan @ %d threads, 1.6x heap — GC policy ablation\n\n", threads)
	fmt.Printf("%-14s %10s %10s %6s %12s %12s %10s\n",
		"policy", "total", "stw-gc", "gcs", "max-pause", "conc-cpu", "setup-share")
	for _, policy := range javasim.GCPolicyNames() {
		r := results[policy]
		setupShare := 0.0
		if total := r.GCPhases.Total(); total > 0 {
			setupShare = float64(r.GCPhases.Setup) / float64(total)
		}
		fmt.Printf("%-14s %10v %10v %6d %12v %12v %9.0f%%\n",
			policy, r.TotalTime, r.GCTime, r.GCStats.Collections(), r.GCStats.MaxPause,
			r.ConcGCCPUTime, 100*setupShare)
	}

	fmt.Println("\nreading the results:")
	fmt.Println(" - stw-parallel: the per-worker fork/join tax rides the parallel scan")
	fmt.Println("   and copy phases, so their share balloons (setup-share falls) and")
	fmt.Println("   total pause time grows with the machine — GC-bound collapse.")
	fmt.Println(" - concurrent: full collections become background cycles; max pause")
	fmt.Println("   collapses while conc-cpu records the mutator-overlap cost.")
	fmt.Println(" - compartment: many short socket-local collections replace few global")
	fmt.Println("   ones (fixed setup dominates), and NUMA-homed regions discount the")
	fmt.Println("   evacuation phase.")
}
