// Command javasim runs one benchmark configuration on the simulated JVM
// and prints the measurement record — the per-run driver behind the
// paper's methodology (§II-B). It also executes declarative scenario
// plans (-plan) and enumerates the workload registry (-list). Everything
// dispatches through a javasim.Engine, so Ctrl-C cancels mid-simulation.
//
// Usage:
//
//	javasim -workload xalan -threads 16 [-heap-factor 3] [-seed 42]
//	        [-scale 1.0] [-compartments 4] [-bias-groups 2]
//	        [-lock-policy restricted] [-placement round-robin]
//	        [-gc-policy concurrent] [-machine sparc-t3-4]
//	        [-trace out.trace] [-lockprof] [-v]
//	javasim -workload server -arrival poisson -rate 200000 -threads 16
//	        [-requests 4000] [-timeout 5ms]
//	javasim -plan plan.json [-parallel 8] [-progress]
//	javasim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"javasim"
	"javasim/internal/sim"
	"javasim/internal/trace"
	"javasim/internal/workload"
)

func main() {
	var (
		name         = flag.String("workload", "xalan", "benchmark: "+strings.Join(javasim.WorkloadNames(), ", ")+" (see -list)")
		specFile     = flag.String("spec", "", "load a custom workload Spec from this JSON file (overrides -workload)")
		dumpSpec     = flag.Bool("dump-spec", false, "print the selected workload's Spec as JSON and exit")
		planFile     = flag.String("plan", "", "execute a declarative scenario plan from this JSON file and exit")
		list         = flag.Bool("list", false, "list the workload registry and exit")
		parallel     = flag.Int("parallel", 0, "with -plan: max concurrent simulations (0 = GOMAXPROCS)")
		progress     = flag.Bool("progress", false, "with -plan: stream engine progress events to stderr")
		storeDir     = flag.String("store", "", "with -plan: back the result cache with this content-addressed store directory")
		threads      = flag.Int("threads", 4, "mutator threads (cores = threads, per the paper)")
		cores        = flag.Int("cores", 0, "enabled cores; 0 means cores = threads")
		heapFactor   = flag.Float64("heap-factor", 3, "heap size as a multiple of the minimum heap")
		seed         = flag.Uint64("seed", 42, "deterministic seed")
		scale        = flag.Float64("scale", 1, "workload scale factor (0,1]")
		iterations   = flag.Int("iterations", 1, "DaCapo-style iterations inside one JVM")
		compartments = flag.Int("compartments", 0, "heap compartments (future-work b); 0 = off")
		biasGroups   = flag.Int("bias-groups", 0, "phase-bias scheduling groups (future-work a); 0 = off")
		biasPhase    = flag.Duration("bias-phase", 0, "phase length for biased scheduling (default 2ms)")
		arrival      = flag.String("arrival", "", "open-system arrival process: "+strings.Join(javasim.ArrivalProcessNames(), ", ")+" (default closed loop)")
		rate         = flag.Float64("rate", 0, "with -arrival: offered request rate per second")
		requests     = flag.Int("requests", 0, "with -arrival: offered requests per run (0 = workload unit budget)")
		reqTimeout   = flag.Duration("timeout", 0, "with -arrival: abandon requests queued longer than this (0 = never)")
		lockPolicy   = flag.String("lock-policy", "", "contended-monitor discipline: "+strings.Join(javasim.LockPolicyNames(), ", ")+" (default fifo)")
		placement    = flag.String("placement", "", "run-queue placement: "+strings.Join(javasim.PlacementNames(), ", ")+" (default affinity)")
		gcPolicy     = flag.String("gc-policy", "", "collection discipline: "+strings.Join(javasim.GCPolicyNames(), ", ")+" (default stw-serial)")
		machineName  = flag.String("machine", "", "hardware model: "+strings.Join(javasim.MachineNames(), ", ")+" (default opteron-6168)")
		traceOut     = flag.String("trace", "", "write an Elephant-Tracks-style binary trace to this file")
		lockprofFlag = flag.Bool("lockprof", false, "print the DTrace-style lock profile")
		verbose      = flag.Bool("v", false, "print per-thread detail")
	)
	flag.Parse()

	if *list {
		listWorkloads()
		return
	}
	if *planFile != "" {
		runPlan(*planFile, *parallel, *progress, *storeDir)
		return
	}

	var spec javasim.Spec
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			fatalf("open spec: %v", err)
		}
		spec, err = workload.LoadSpec(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		var err error
		if spec, err = workload.Registry.Get(*name); err != nil {
			fatalf("%v", err)
		}
	}
	if *dumpSpec {
		if err := spec.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *scale != 1 {
		spec = spec.Scale(*scale)
	}

	cfg := javasim.Config{
		Threads:      *threads,
		Cores:        *cores,
		HeapFactor:   *heapFactor,
		Seed:         *seed,
		Compartments: *compartments,
		Iterations:   *iterations,
		LockPolicy:   *lockPolicy,
		GCPolicy:     *gcPolicy,
		MachineName:  *machineName,
	}
	cfg.Sched.Placement = *placement
	if *arrival != "" && *arrival != javasim.ArrivalClosed {
		cfg.Traffic = javasim.TrafficConfig{
			Process:    *arrival,
			RatePerSec: *rate,
			Requests:   *requests,
			Timeout:    sim.Time(reqTimeout.Nanoseconds()),
		}
	} else if *rate != 0 || *requests != 0 || *reqTimeout != 0 {
		fatalf("-rate/-requests/-timeout need -arrival naming an open process")
	}
	if *biasGroups > 1 {
		cfg.Sched.Bias.Groups = *biasGroups
		cfg.Sched.Bias.PhaseLength = sim.Time(biasPhase.Nanoseconds())
	}

	var traceFile *os.File
	var tw *trace.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("create trace: %v", err)
		}
		traceFile = f
		tw = trace.NewWriter(f)
		cfg.TraceSink = tw
	}
	var prof *javasim.LockProfiler
	if *lockprofFlag {
		prof = javasim.NewLockProfiler()
		cfg.LockProfiler = prof
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := javasim.NewEngine(javasim.WithParallelism(1))
	res, err := eng.Run(ctx, spec, cfg)
	if err != nil {
		fatalf("run: %v", err)
	}

	fmt.Printf("workload      %s (scale %.2f)\n", res.Workload, *scale)
	fmt.Printf("threads/cores %d/%d\n", res.Threads, res.Cores)
	fmt.Printf("policies      lock=%s placement=%s gc=%s\n", res.LockPolicy, res.Placement, res.GCPolicy)
	if res.Machine != "" && res.Machine != javasim.MachineOpteron6168 {
		fmt.Printf("machine       %s\n", res.Machine)
	}
	fmt.Printf("total time    %v\n", res.TotalTime)
	fmt.Printf("mutator time  %v\n", res.MutatorTime)
	fmt.Printf("gc time       %v (%.1f%%, safepoints %v)\n", res.GCTime, 100*res.GCShare(), res.SafepointTime)
	fmt.Printf("collections   %d minor, %d full\n", res.GCStats.MinorCount, res.GCStats.FullCount)
	fmt.Printf("allocated     %d objects, %.1f MB\n", res.ObjectsAllocated, float64(res.AllocatedBytes)/(1<<20))
	fmt.Printf("promoted      %.2f MB, copied %.2f MB\n",
		float64(res.GCStats.PromotedBytes)/(1<<20), float64(res.GCStats.CopiedBytes)/(1<<20))
	fmt.Printf("locks         %d acquisitions, %d contentions (%.2f%%)\n",
		res.LockAcquisitions, res.LockContentions,
		100*float64(res.LockContentions)/float64(max64(res.LockAcquisitions, 1)))
	fmt.Printf("lifespans     %.1f%% < 1KB, mean %.0f B\n",
		100*res.Lifespans.FractionBelow(1024), res.Lifespans.Mean())
	fmt.Printf("utilization   %.2f\n", res.Utilization)
	if res.MemTraffic > 0 {
		fmt.Printf("mem traffic   %.1f MB billed, %v stalled on channel backlog\n",
			float64(res.MemTraffic)/(1<<20), res.MemBWStall)
	}
	if st := res.Traffic; st != nil {
		fmt.Printf("traffic       %s at %.0f req/s offered\n", st.Process, st.RatePerSec)
		fmt.Printf("requests      %d offered, %d completed, %d timed out\n",
			st.Offered, st.Completed, st.TimedOut)
		fmt.Printf("goodput       %.0f req/s\n", st.GoodputPerSec(res.TotalTime))
		fmt.Printf("latency       p50 %v, p99 %v, p99.9 %v\n",
			sim.Time(st.Latency.Percentile(50)),
			sim.Time(st.Latency.Percentile(99)),
			sim.Time(st.Latency.Percentile(99.9)))
		fmt.Printf("queue         max depth %d, mean %.1f, wait p99 %v\n",
			st.QueueDepthMax, st.QueueDepthMean, sim.Time(st.QueueWait.Percentile(99)))
	}
	if len(res.Iterations) > 1 {
		fmt.Println("iterations    (duration / gc / collections)")
		for _, it := range res.Iterations {
			fmt.Printf("  #%-2d %12v %12v %4d\n", it.Index, it.Duration, it.GCTime, it.Collections)
		}
	}

	if *verbose {
		fmt.Println("\nper-thread: units cpu ready-wait")
		for i, u := range res.PerThreadUnits {
			fmt.Printf("  worker-%-3d %6d %12v %12v\n", i, u, res.PerThreadCPU[i], res.PerThreadReadyWait[i])
		}
		fmt.Printf("\ngc pauses: %d, max %v, phases %v/%v/%v (setup/scan/copy);\n",
			res.GCStats.Collections(), res.GCStats.MaxPause,
			res.GCPhases.Setup, res.GCPhases.Scan, res.GCPhases.Copy)
		fmt.Println("  for each pause, run with -trace out.trace, then tracetool dump out.trace")
	}
	if prof != nil {
		fmt.Println()
		prof.Report(os.Stdout, 10)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			fatalf("flush trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("close trace: %v", err)
		}
		fmt.Printf("\ntrace: %d events written to %s\n", tw.Count(), *traceOut)
	}
}

// listWorkloads prints the registry: every runnable workload with its
// provenance and the paper's scalability classification.
func listWorkloads() {
	fmt.Printf("%-12s %-10s %-14s %8s %s\n", "NAME", "SET", "DISTRIBUTION", "UNITS", "PAPER-VERDICT")
	paper := make(map[string]bool)
	for _, s := range javasim.PaperBenchmarks() {
		paper[s.Name] = true
	}
	for _, s := range javasim.Workloads() {
		set := "extension"
		verdict := "-"
		if paper[s.Name] {
			set = "paper"
			verdict = map[bool]string{true: "scalable", false: "non-scalable"}[javasim.PaperScalable(s.Name)]
		}
		fmt.Printf("%-12s %-10s %-14s %8d %s\n", s.Name, set, s.Distribution, s.TotalUnits, verdict)
	}
}

// runPlan executes a declarative scenario plan file through an engine and
// prints every rendered table. With storeDir, the engine's result cache
// reads through to (and writes through to) the content-addressed disk
// store, so a plan already run by any process sharing the store — an
// earlier invocation, a javasimd daemon — simulates nothing.
func runPlan(path string, parallel int, progress bool, storeDir string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open plan: %v", err)
	}
	plan, err := javasim.LoadPlan(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}

	opts := []javasim.Option{}
	if parallel > 0 {
		opts = append(opts, javasim.WithParallelism(parallel))
	}
	if progress {
		opts = append(opts, javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
			fmt.Fprintf(os.Stderr, "javasim: %v\n", ev)
		})))
	}
	if storeDir != "" {
		st, err := javasim.OpenStore(storeDir)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fatalf("store: %v", err)
			}
		}()
		opts = append(opts, javasim.WithDiskCache(st))
	}
	eng := javasim.NewEngine(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	pr, err := eng.RunPlan(ctx, plan)
	if err != nil {
		fatalf("plan: %v", err)
	}
	for i, t := range pr.Tables() {
		if i > 0 {
			fmt.Println()
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
	}
	if progress {
		cs := eng.CacheStats()
		fmt.Fprintf(os.Stderr, "javasim: %d simulations, %d memory hits, %d disk hits, %d shared in flight, %d disk writes, %d memoized\n",
			cs.Misses, cs.MemoryHits, cs.DiskHits, cs.Shared, cs.DiskWrites, cs.Entries)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "javasim: "+format+"\n", args...)
	os.Exit(1)
}
