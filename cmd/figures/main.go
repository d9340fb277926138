// Command figures regenerates the paper's figures and tables by running
// javasim.PaperPlan, or the design-choice studies by running
// javasim.StudyPlan, or the one report of either that a flag selects,
// through a javasim.Engine: sweeps run on a bounded worker pool, repeated
// configurations are memoized, Ctrl-C cancels the batch mid-run, and
// -progress streams per-run events while long batches execute. At most
// one of -fig, -table and -study may be given.
//
// Usage:
//
//	figures                         # all paper artifacts, full scale
//	figures -fig 1a                 # one figure: 1a|1b|1c|1d|2
//	figures -table classification   # classification|workdist|factors|biased|compartment
//	figures -scale 0.2 -threads 4,16,48 -csv
//	figures -study all -parallel 8 -progress
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"

	"javasim"
	"javasim/internal/report"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 1a|1b|1c|1d|2 (empty = all artifacts)")
		table    = flag.String("table", "", "table to regenerate: classification|workdist|factors|biased|compartment")
		study    = flag.String("study", "", "design-choice study: heapfactor|gcworkers|tenuring|numa|collector|pretenure|replication|all")
		scale    = flag.Float64("scale", 1, "workload scale factor (0,1]")
		seed     = flag.Uint64("seed", 42, "deterministic seed")
		threads  = flag.String("threads", "", "comma-separated thread counts (default 4,8,16,24,32,48)")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		chart    = flag.Bool("chart", false, "with -fig 2: render ASCII charts instead of the table")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream engine progress events to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []javasim.Option{}
	if *parallel > 0 {
		opts = append(opts, javasim.WithParallelism(*parallel))
	}
	if *progress {
		opts = append(opts, javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
			fmt.Fprintf(os.Stderr, "figures: %v\n", ev)
		})))
	}
	eng := javasim.NewEngine(opts...)

	cfg := javasim.ExperimentConfig{Scale: *scale, Seed: *seed}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatalf("bad -threads entry %q", part)
			}
			cfg.ThreadCounts = append(cfg.ThreadCounts, n)
		}
	}

	picked := 0
	for _, v := range []string{*fig, *table, *study} {
		if v != "" {
			picked++
		}
	}
	if picked > 1 {
		fatalf("give at most one of -fig, -table and -study")
	}
	if *chart && *fig != "2" {
		fatalf("-chart renders Figure 2; it needs -fig 2")
	}
	plan := javasim.PaperPlan(cfg)
	switch {
	case *fig != "":
		plan = check(plan.Select(artifact("fig", *fig)))
	case *table != "":
		plan = check(plan.Select(artifact("table", *table)))
	case *study != "":
		plan = javasim.StudyPlan(cfg)
		if name := artifact("study", *study); name != "" {
			plan = check(plan.Select(name))
		}
	}
	pr := check(eng.RunPlan(ctx, plan))
	if *chart {
		writeCharts(pr)
		return
	}
	tables := pr.Reports

	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		var err error
		if *csvOut {
			err = t.WriteCSV(os.Stdout)
		} else {
			err = t.WriteASCII(os.Stdout)
		}
		if err != nil {
			fatalf("render: %v", err)
		}
	}
	if *progress {
		st := eng.CacheStats()
		fmt.Fprintf(os.Stderr, "figures: %d simulations, %d cache hits, %d memoized\n",
			st.Misses, st.MemoryHits+st.DiskHits+st.Shared, st.Entries)
	}
}

// artifacts maps each -fig and -table value to the PaperPlan report it
// regenerates, and each -study value to its StudyPlan report ("all", to
// none: the whole plan).
var artifacts = map[string]map[string]string{
	"fig": {"1a": "Fig1a", "1b": "Fig1b", "1c": "Fig1c", "1d": "Fig1d", "2": "Fig2"},
	"table": {"classification": "ClassificationTable", "workdist": "WorkDistributionTable",
		"factors": "FactorsTable", "biased": "AblationBias", "compartment": "AblationCompartments"},
	"study": {"heapfactor": "StudyHeapFactor", "gcworkers": "StudyGCWorkers", "tenuring": "StudyTenuring",
		"numa": "StudyNUMA", "collector": "StudyCollector", "pretenure": "StudyPretenuring",
		"replication": "StudyReplication", "all": ""},
}

// artifact resolves a flag value through artifacts, exiting on an
// unknown one.
func artifact(flagName, value string) string {
	name, ok := artifacts[flagName][value]
	if !ok {
		known := slices.Sorted(maps.Keys(artifacts[flagName]))
		fatalf("unknown -%s value %q (known: %s)", flagName, value, strings.Join(known, "|"))
	}
	return name
}

// writeCharts renders Figure 2 as ASCII charts: per scalable workload,
// the mutator and GC time series against the thread sweep — the quickest
// way to eyeball the crossing shapes in a terminal.
func writeCharts(pr *javasim.PlanResult) {
	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1000
		}
		return out
	}
	for _, sc := range pr.Scenarios {
		sw := sc.Sweep()
		ticks := make([]string, len(sw.Points))
		for i, p := range sw.Points {
			ticks[i] = strconv.Itoa(p.Threads)
		}
		c := &report.Chart{
			Title:  fmt.Sprintf("Figure 2 — %s: mutator vs GC time (ms)", sc.Name),
			XLabel: "threads (= cores)",
			XTicks: ticks,
			Series: []report.Series{
				{Name: "mutator ms", Points: ms(sw.MutatorSeconds())},
				{Name: "gc ms", Points: ms(sw.GCSeconds())},
			},
		}
		if err := c.WriteASCII(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		fmt.Println()
	}
}

// check exits on err and passes v through.
func check[T any](v T, err error) T {
	if err != nil {
		fatalf("%v", err)
	}
	return v
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(1)
}
