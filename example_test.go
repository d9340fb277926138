package javasim_test

import (
	"context"
	"fmt"
	"os"
	"strings"

	"javasim"
)

// tolerateDup ignores the duplicate-registration error the process-global
// registries return when examples rerun in one binary (go test -count=2).
func tolerateDup(err error) {
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		panic(err)
	}
}

// ExampleEngine_Run executes one benchmark configuration through an
// engine and reads the paper's three headline measurements.
func ExampleEngine_Run() {
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("xalan")
	res, err := eng.Run(context.Background(), spec.Scale(0.05), javasim.Config{Threads: 8, Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Printf("gc share: %.1f%%\n", 100*res.GCShare())
	fmt.Printf("contended acquisitions: %d\n", res.LockContentions)
	fmt.Printf("objects dying < 1KB: %.0f%%\n", 100*res.Lifespans.FractionBelow(1024))
	// Deterministic for a fixed seed, but tied to the calibrated workload
	// models — so this example asserts nothing about the exact values.
}

// ExampleEngine_Sweep sweeps thread counts on the engine's bounded worker
// pool and applies the paper's scalability classification.
func ExampleEngine_Sweep() {
	eng := javasim.NewEngine(javasim.WithParallelism(2))
	spec, _ := javasim.LookupWorkload("jython")
	sw, err := eng.Sweep(context.Background(), spec.Scale(0.05), javasim.SweepConfig{
		ThreadCounts: []int{4, 16},
	})
	if err != nil {
		panic(err)
	}
	c := sw.Classify(2.0)
	fmt.Println("scalable:", c.Scalable)
	// Output: scalable: false
}

// ExampleConfig_lockPolicy A/Bs two contended-monitor disciplines on the
// same workload and seed: the paper's baseline FIFO park/handoff against
// Dice & Kogan-style concurrency restriction, which parks excess threads
// at an admission gate that never fires the contended-enter probe.
func ExampleConfig_lockPolicy() {
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("server")
	run := func(policy string) *javasim.Result {
		res, err := eng.Run(context.Background(), spec.Scale(0.05),
			javasim.Config{Threads: 32, Seed: 42, LockPolicy: policy})
		if err != nil {
			panic(err)
		}
		return res
	}
	fifo := run(javasim.LockPolicyFIFO)
	restricted := run(javasim.LockPolicyRestricted)
	fmt.Println("restricted tames contention:", restricted.LockContentions < fifo.LockContentions)
	// Output: restricted tames contention: true
}

// ExampleRegisterWorkload registers a custom application model under its
// own name, after which plans, the suite, and the CLI resolve it like a
// built-in. (docs/extending.md, "Custom workloads".)
func ExampleRegisterWorkload() {
	spec, _ := javasim.LookupWorkload("xalan")
	spec.Name = "docs-miniapp"
	tolerateDup(javasim.RegisterWorkload(spec))
	reg, ok := javasim.LookupWorkload("docs-miniapp")
	fmt.Println("registered:", ok && reg.Name == "docs-miniapp")
	// Output: registered: true
}

// ExampleRegisterLockPolicy registers a tuned spin-then-park variant and
// selects it by name; the Result records the selected name.
// (docs/extending.md, "Custom lock policies".)
func ExampleRegisterLockPolicy() {
	tolerateDup(javasim.RegisterLockPolicy("docs-spin-10us", func() javasim.LockPolicy {
		return javasim.SpinThenParkPolicy(10 * javasim.Microsecond)
	}))
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("server")
	res, err := eng.Run(context.Background(), spec.Scale(0.05),
		javasim.Config{Threads: 8, Seed: 42, LockPolicy: "docs-spin-10us"})
	if err != nil {
		panic(err)
	}
	fmt.Println("ran under:", res.LockPolicy)
	// Output: ran under: docs-spin-10us
}

// ExampleRegisterGCPolicy registers a tuned stw-parallel variant with a
// harsher synchronization tax and selects it by name.
// (docs/extending.md, "Custom GC policies".)
func ExampleRegisterGCPolicy() {
	tolerateDup(javasim.RegisterGCPolicy("docs-stw-parallel-10us", func() javasim.GCPolicy {
		return javasim.ParallelGCPolicy(0.02, 10*javasim.Microsecond)
	}))
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("xalan")
	res, err := eng.Run(context.Background(), spec.Scale(0.05),
		javasim.Config{Threads: 8, Seed: 42, GCPolicy: "docs-stw-parallel-10us"})
	if err != nil {
		panic(err)
	}
	fmt.Println("ran under:", res.GCPolicy)
	// Output: ran under: docs-stw-parallel-10us
}

// ExampleConfig_gcPolicy A/Bs two collection disciplines on the same
// workload and seed: the paper's stop-the-world throughput collector
// against NUMA-homed per-group heap compartments, whose slice-local
// collections are more numerous but individually smaller.
func ExampleConfig_gcPolicy() {
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("xalan")
	run := func(policy string) *javasim.Result {
		res, err := eng.Run(context.Background(), spec.Scale(0.1),
			javasim.Config{Threads: 24, Seed: 42, GCPolicy: policy})
		if err != nil {
			panic(err)
		}
		return res
	}
	serial := run(javasim.GCPolicyStwSerial)
	comp := run(javasim.GCPolicyCompartment)
	fmt.Println("compartment slices collections:", comp.GCStats.Collections() > serial.GCStats.Collections())
	// Output: compartment slices collections: true
}

// ExampleConfig_placement selects a scheduler placement by registry name
// (docs/extending.md, "Custom placements").
func ExampleConfig_placement() {
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("jython")
	cfg := javasim.Config{Threads: 4, Seed: 42}
	cfg.Sched.Placement = javasim.PlacementRoundRobin
	res, err := eng.Run(context.Background(), spec.Scale(0.05), cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("ran under:", res.Placement)
	// Output: ran under: round-robin
}

// ExamplePlan_Select regenerates one of the paper's figures as a table,
// simulating only the xalan sweep it reads.
func ExamplePlan_Select() {
	plan, err := javasim.PaperPlan(javasim.ExperimentConfig{
		ThreadCounts: []int{4, 16},
		Scale:        0.05,
	}).Select("Fig1d")
	if err != nil {
		panic(err)
	}
	pr, err := javasim.NewEngine().RunPlan(context.Background(), plan)
	if err != nil {
		panic(err)
	}
	pr.Reports[0].WriteASCII(os.Stdout)
	// The rendered table lists the lifespan CDF of xalan at both thread
	// counts; values depend on the calibrated models.
}

// ExampleWithObserver streams progress events while a sweep runs and
// counts how many simulations the engine actually executed.
func ExampleWithObserver() {
	var started int
	eng := javasim.NewEngine(
		javasim.WithParallelism(1),
		javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
			if ev.Kind == javasim.RunStarted {
				started++
			}
		})),
	)
	spec, _ := javasim.LookupWorkload("jython")
	cfg := javasim.SweepConfig{ThreadCounts: []int{2, 4}}
	if _, err := eng.Sweep(context.Background(), spec.Scale(0.05), cfg); err != nil {
		panic(err)
	}
	if _, err := eng.Sweep(context.Background(), spec.Scale(0.05), cfg); err != nil {
		panic(err)
	}
	// The second sweep is answered entirely from the memoizing cache.
	fmt.Println("simulations:", started)
	// Output: simulations: 2
}

// ExampleRegisterArrivalProcess registers a deterministic fixed-gap
// arrival process and drives an open-system run with it.
// (docs/extending.md, "Custom arrival processes".)
func ExampleRegisterArrivalProcess() {
	tolerateDup(javasim.RegisterArrivalProcess("docs-fixed", func(cfg javasim.TrafficConfig) (javasim.ArrivalProcess, error) {
		if cfg.RatePerSec <= 0 {
			return nil, fmt.Errorf("docs-fixed needs a positive rate")
		}
		return fixedGap{gap: javasim.Time(1e9 / cfg.RatePerSec)}, nil
	}))
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("server")
	res, err := eng.Run(context.Background(), spec.Scale(0.1), javasim.Config{
		Threads: 8, Seed: 42,
		Traffic: javasim.TrafficConfig{Process: "docs-fixed", RatePerSec: 100000, Requests: 500},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d of %d requests completed\n",
		res.Traffic.Process, res.Traffic.Completed, res.Traffic.Offered)
	// Output: docs-fixed: 500 of 500 requests completed
}

// fixedGap emits one request every gap of virtual time — the simplest
// possible ArrivalProcess, used by ExampleRegisterArrivalProcess.
type fixedGap struct{ gap javasim.Time }

func (p fixedGap) Next(now javasim.Time, rng *javasim.Rand) javasim.Time { return p.gap }

// ExampleRegisterMachine registers a custom hardware model — a
// single-socket desktop — and runs a workload on it by name. The
// compiled version of the "Custom machine models" guide in
// docs/extending.md.
func ExampleRegisterMachine() {
	tolerateDup(javasim.RegisterMachine(javasim.NewMachineModel("docs-desktop", javasim.MachineConfig{
		Sockets:        1,
		CoresPerSocket: 8,
		MemoryPerNode:  32 << 30,
		LocalAccess:    70,
		MigrationCost:  3000,
	})))
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("xalan")
	res, err := eng.Run(context.Background(), spec.Scale(0.05), javasim.Config{
		Threads: 16, Seed: 42, MachineName: "docs-desktop",
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d threads on %d cores\n", res.Machine, res.Threads, res.Cores)
	// Output: docs-desktop: 16 threads on 8 cores
}
