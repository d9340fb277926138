// Example machines runs the same workload, seed, and JVM policies on
// each registered hardware model — the testbed-specificity experiment
// the paper can only caveat in prose. Machine models are string-keyed
// and pluggable (javasim.RegisterMachine), and three ship built in:
//
//   - opteron-6168: the paper's 48-core Magny-Cours testbed, one
//     hardware thread per core. The default; all other examples run it.
//   - sparc-t3-4: a CMT box — 4 sockets x 16 cores x 8 hardware strands
//     sharing a 2-wide issue pipeline per core. 512 schedulable units,
//     but per-strand throughput degrades once a core carries more
//     runnable strands than issue slots, so the scaling curve knees
//     where the Opteron's keeps falling.
//   - opteron-6168-bw: the same Opteron with a finite per-socket memory
//     bandwidth. Allocation and GC-copy traffic past the ceiling queues
//     on the channel, stretching latencies — a scaling limiter that is
//     invisible on the ideal machine.
//
// The example also registers a model of its own (a single-socket 8-core
// desktop) to show the registry is open.
package main

import (
	"context"
	"fmt"
	"log"

	"javasim"
)

func main() {
	// Registering a custom model: any name not already taken, any valid
	// topology. After this it is addressable from configs, plan files,
	// and the -machine CLI flag alike.
	desktop := javasim.MachineConfig{
		Sockets:        1,
		CoresPerSocket: 8,
		MemoryPerNode:  32 << 30,
		LocalAccess:    70,
		MigrationCost:  3000,
	}
	if err := javasim.RegisterMachine("desktop-8", desktop); err != nil {
		log.Fatalf("register: %v", err)
	}
	fmt.Printf("registered machine models: %v\n\n", javasim.MachineNames())

	eng := javasim.NewEngine()
	spec, ok := javasim.LookupWorkload("server")
	if !ok {
		log.Fatal("server model missing")
	}
	spec = spec.Scale(0.05)

	threadCounts := []int{8, 16, 32, 48}
	models := []string{
		javasim.MachineOpteron6168,
		javasim.MachineSparcT3,
		javasim.MachineOpteron6168BW,
	}

	fmt.Printf("server scale 0.05, seed 42 — total time by machine model\n\n")
	fmt.Printf("%-16s", "machine")
	for _, n := range threadCounts {
		fmt.Printf(" %10s", fmt.Sprintf("t=%d", n))
	}
	fmt.Printf(" %12s\n", "bw-stall@48")
	for _, mdl := range models {
		fmt.Printf("%-16s", mdl)
		var last *javasim.Result
		for _, n := range threadCounts {
			cfg := javasim.Config{Threads: n, Seed: 42, MachineName: mdl}
			res, err := eng.Run(context.Background(), spec, cfg)
			if err != nil {
				log.Fatalf("%s @ %d: %v", mdl, n, err)
			}
			fmt.Printf(" %10v", res.TotalTime)
			last = res
		}
		fmt.Printf(" %12v\n", last.MemBWStall)
	}

	// The desktop model has only 8 cores; the machine caps the sweep.
	cfg := javasim.Config{Threads: 8, Seed: 42, MachineName: "desktop-8"}
	res, err := eng.Run(context.Background(), spec, cfg)
	if err != nil {
		log.Fatalf("desktop-8: %v", err)
	}
	fmt.Printf("%-16s %10v (8 cores, single socket — no NUMA penalty at all)\n",
		"desktop-8", res.TotalTime)

	fmt.Println("\nreading the results:")
	fmt.Println(" - sparc-t3-4 tracks the Opteron while every core runs at most two")
	fmt.Println("   strands (issue width 2), then knees at 48 threads: three runnable")
	fmt.Println("   strands now share each 2-wide pipeline, so per-thread speed drops")
	fmt.Println("   to 2/3 and the extra threads stop paying for themselves.")
	fmt.Println(" - opteron-6168-bw is slower everywhere: the allocation-heavy server")
	fmt.Println("   workload saturates the per-socket memory channel, and the queued")
	fmt.Println("   traffic surfaces as bw-stall time and a bw-share factor term.")
	fmt.Println(" - the hardware ceiling is a property of the machine, not the")
	fmt.Println("   application — the same JVM and workload scale, knee, or stall")
	fmt.Println("   depending only on which model the plan names.")
}
