// Command lockstat profiles lock behavior of a benchmark run — the
// simulator's equivalent of the DTrace scripts the paper used to count
// lock acquisitions and contention instances (§II-B). Runs dispatch
// through a javasim.Engine: the -sweep mode executes its points on the
// engine's bounded worker pool, and Ctrl-C cancels mid-run.
//
// Usage:
//
//	lockstat -workload xalan -threads 48 [-top 10] [-sweep]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"javasim"
	"javasim/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "xalan", "benchmark name")
		threads = flag.Int("threads", 8, "mutator threads")
		top     = flag.Int("top", 10, "hottest locks to list")
		scale   = flag.Float64("scale", 1, "workload scale factor")
		seed    = flag.Uint64("seed", 42, "deterministic seed")
		sweep   = flag.Bool("sweep", false, "sweep the paper's thread counts and print the growth series")
	)
	flag.Parse()

	spec, err := workload.Registry.Get(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *scale != 1 {
		spec = spec.Scale(*scale)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := javasim.NewEngine()

	if *sweep {
		sw, err := eng.Sweep(ctx, spec, javasim.SweepConfig{Base: javasim.Config{Seed: *seed}})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%-8s %14s %14s %10s\n", "threads", "acquisitions", "contentions", "rate")
		for _, p := range sw.Points {
			res := p.Result
			rate := 0.0
			if res.LockAcquisitions > 0 {
				rate = float64(res.LockContentions) / float64(res.LockAcquisitions)
			}
			fmt.Printf("%-8d %14d %14d %9.2f%%\n", p.Threads, res.LockAcquisitions, res.LockContentions, 100*rate)
		}
		return
	}

	prof := javasim.NewLockProfiler()
	res, err := eng.Run(ctx, spec, javasim.Config{Threads: *threads, Seed: *seed, LockProfiler: prof})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s @ %d threads: total %v (gc %v)\n\n", res.Workload, res.Threads, res.TotalTime, res.GCTime)
	prof.Report(os.Stdout, *top)
	fmt.Printf("\ncontended wait times: mean %v\n", prof.Summary().MeanWait)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lockstat: "+format+"\n", args...)
	os.Exit(1)
}
