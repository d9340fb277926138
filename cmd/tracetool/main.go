// Command tracetool inspects the Elephant-Tracks-style binary traces
// produced by javasim -trace. Like the other binaries, it is
// context-aware: Ctrl-C cancels an analysis mid-stream, which matters for
// the multi-gigabyte traces long runs produce.
//
// Usage:
//
//	tracetool stats trace.bin          # lifespan distribution + counters
//	tracetool cdf trace.bin            # Figure 1c/1d-style lifespan CDF
//	tracetool threads trace.bin        # per-thread allocation breakdown
//	tracetool dump trace.bin [-n 100]  # human-readable event listing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"javasim/internal/trace"
)

func main() {
	dumpN := flag.Int("n", 50, "dump: number of events to print (0 = all)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	// flag.Parse stops at the first positional argument, so the flags
	// that follow <cmd> <file> are parsed separately.
	cmd, path := args[0], args[1]
	flag.CommandLine.Parse(args[2:])
	if flag.NArg() != 0 {
		usage()
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	r := trace.NewReader(f)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch cmd {
	case "stats":
		stats(ctx, r)
	case "cdf":
		cdf(ctx, r)
	case "threads":
		threads(ctx, r)
	case "dump":
		dump(ctx, r, *dumpN)
	default:
		usage()
	}
}

// threads prints the per-thread allocation and lifespan breakdown.
func threads(ctx context.Context, r *trace.Reader) {
	a, err := trace.Analyze(ctx, r, 0)
	if err != nil {
		fatalf("analyze: %v", err)
	}
	fmt.Printf("%-8s %10s %12s %14s %12s\n", "THREAD", "ALLOCS", "BYTES", "MEAN-LIFESPAN", "<1KB")
	for _, tp := range a.Threads {
		fmt.Printf("t%-7d %10d %12d %13.0fB %11.1f%%\n",
			tp.Thread, tp.Allocs, tp.AllocBytes,
			tp.Lifespans.Mean(), 100*tp.Lifespans.FractionBelow(1024))
	}
	fmt.Printf("\nchurn: %d windows of %v; peak alloc %s/window\n",
		len(a.Churn), a.WindowSize, peakChurn(a.Churn))
}

func peakChurn(ws []trace.ChurnWindow) string {
	var max int64
	for _, w := range ws {
		if w.AllocBytes > max {
			max = w.AllocBytes
		}
	}
	return fmt.Sprintf("%dB", max)
}

// cdf prints the cumulative lifespan distribution in the paper's
// Figure 1c/1d bucket layout.
func cdf(ctx context.Context, r *trace.Reader) {
	a, err := trace.Analyze(ctx, r, 0)
	if err != nil {
		fatalf("analyze: %v", err)
	}
	fmt.Printf("%-14s %10s\n", "lifespan <", "objects")
	for _, lim := range []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		fmt.Printf("%-14d %9.1f%%\n", lim, 100*a.Lifespans.FractionBelow(lim))
	}
}

func stats(ctx context.Context, r *trace.Reader) {
	a, err := trace.Analyze(ctx, r, 0)
	if err != nil {
		fatalf("analyze: %v", err)
	}
	fmt.Printf("events     %d\n", a.Events)
	fmt.Printf("allocs     %d\n", a.Allocs)
	fmt.Printf("deaths     %d\n", a.Deaths)
	fmt.Printf("gcs        %d\n", a.GCs)
	fmt.Printf("leaked     %d (allocated, never died)\n", a.Leaked)
	fmt.Printf("\nlifespan distribution (bytes allocated between birth and death):\n")
	fmt.Print(a.Lifespans.String())
	for _, lim := range []int64{1 << 10, 64 << 10, 1 << 20} {
		fmt.Printf("  %% below %-8d = %.1f%%\n", lim, 100*a.Lifespans.FractionBelow(lim))
	}
}

func dump(ctx context.Context, r *trace.Reader, n int) {
	for i := 0; n == 0 || i < n; i++ {
		if i%1024 == 0 && ctx.Err() != nil {
			fatalf("dump: %v", ctx.Err())
		}
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			fatalf("read: %v", err)
		}
		switch ev.Kind {
		case trace.Alloc:
			fmt.Printf("%12v t%-3d alloc  obj=%d size=%d clock=%d\n",
				ev.Time, ev.Thread, ev.Object, ev.Size, ev.Clock)
		case trace.Death:
			fmt.Printf("%12v t%-3d death  obj=%d clock=%d\n",
				ev.Time, ev.Thread, ev.Object, ev.Clock)
		case trace.GCStart:
			fmt.Printf("%12v      gc-start kind=%d clock=%d\n", ev.Time, ev.Arg, ev.Clock)
		case trace.GCEnd:
			fmt.Printf("%12v      gc-end   pause=%dns\n", ev.Time, ev.Arg)
		default:
			fmt.Printf("%12v t%-3d %s\n", ev.Time, ev.Thread, ev.Kind)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool <stats|cdf|threads|dump> <trace-file> [-n N]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracetool: "+format+"\n", args...)
	os.Exit(1)
}
