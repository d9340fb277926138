// USL fitting: condense a whole sweep into two numbers. The Universal
// Scalability Law C(N) = N / (1 + sigma*(N-1) + kappa*N*(N-1)) models
// throughput with a contention term (sigma — serialized fractions, lock
// queues) and a coherency term (kappa — pairwise costs like GC and
// bandwidth that grow with N^2). Fitting it to a simulated sweep gives
// an analytic cross-check of the paper's ablation-style factor table:
// the same bottleneck story, recovered from the throughput curve alone.
//
// The fit also extrapolates: kappa > 0 predicts a finite peak thread
// count N* = floor(sqrt((1-sigma)/kappa)) beyond which adding threads
// loses throughput — a number the paper's measured curves can only hint
// at.
package main

import (
	"context"
	"fmt"
	"log"

	"javasim"
)

func main() {
	ctx := context.Background()
	eng := javasim.NewEngine(javasim.WithParallelism(4))

	// One scalable workload, one the paper calls serialization-bound,
	// and one GC-bound: three different loss mechanisms, three fits.
	for _, name := range []string{"xalan", "h2", "jython"} {
		spec, ok := javasim.LookupWorkload(name)
		if !ok {
			log.Fatalf("workload %q missing", name)
		}
		sw, err := eng.Sweep(ctx, spec.Scale(0.05), javasim.SweepConfig{
			ThreadCounts: []int{2, 4, 8, 16},
		})
		if err != nil {
			log.Fatal(err)
		}

		f, err := sw.FitUSL()
		if err != nil {
			log.Fatal(err)
		}
		m := f.Best() // residual-selected: USL, or Amdahl when kappa ~ 0

		fmt.Printf("%s — preferred %s: sigma=%.4f kappa=%.6f R2=%.4f\n",
			name, m.Kind, m.Sigma, m.Kappa, m.R2)
		if peak := m.PeakN(); peak > 0 {
			fmt.Printf("  predicted peak at N* = %d threads\n", peak)
		} else {
			fmt.Println("  saturates without a finite peak (no coherency term)")
		}

		// Predicted vs measured over the sweep, then extrapolated past it.
		xs := sw.Throughputs()
		for i, p := range sw.Points {
			pred := m.Predict(float64(p.Threads))
			fmt.Printf("  t=%-3d measured %9.1f/s  model %9.1f/s  (%+.1f%%)\n",
				p.Threads, xs[i], pred, 100*(pred-xs[i])/xs[i])
		}
		fmt.Printf("  t=64  extrapolated %9.1f/s\n\n", m.Predict(64))
	}

	st := eng.CacheStats()
	fmt.Printf("engine: %d simulations, %d cache hits\n", st.Misses, st.MemoryHits+st.DiskHits+st.Shared)
}
