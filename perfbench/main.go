// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload in a single process, measures it
// for a fixed time, checks that every output is correct, and prints one
// JSON result as its last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// parallelism bounds the engine's concurrent simulations and the
// daemon's closed-loop clients.
var parallelism = min(2, runtime.NumCPU())

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 101
	// minRounds is the fewest rounds a run measures, however short
	// --seconds is: round 0 is untraced and round 1 is traced.
	minRounds = 2
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // shrink every plan; set by the benchmark's own tests
	root     string // repository checkout, for the golden file
	out      string // directory for temporary stores, profiles and spans
	faults   faults
}

// faults deliberately break one output so tests can prove the checks
// count it as a failure.
type faults struct {
	artifact   bool // flip one byte of a re-rendered artifact
	storeEntry bool // garble one store entry before disk hits are read
}

// workloadRunner is one named workload. setup prepares it for its
// rounds; round runs one unit of measured work; finish runs the untimed
// checks that need the whole run.
type workloadRunner interface {
	setup(ctx context.Context, r *run) error
	round(ctx context.Context, r *run, i int, traced bool) error
	finish(ctx context.Context, r *run) error
	close()
}

var workloads = map[string]func() workloadRunner{
	"paper-plan":     func() workloadRunner { return &planWorkload{build: buildPaperPlan} },
	"open-contended": func() workloadRunner { return &planWorkload{build: contendedPlan} },
	"serve-replay":   func() workloadRunner { return &serveWorkload{} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	opts := options{root: "."} // run from the repository root, as run.sh is
	flag.StringVar(&opts.workload, "workload", "", "workload name: paper-plan, open-contended or serve-replay")
	flag.Uint64Var(&opts.seed, "seed", 1, "seed the workload's plans are generated from")
	flag.Float64Var(&opts.seconds, "seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&opts.out, "out", ".bench_build/perfbench", "directory for temporary files and traces")
	flag.Parse()
	opts.trace = *trace == 1

	res, digest, err := execute(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("sim_digest %s seed=%d %s\n", opts.workload, opts.seed, digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result and sim digest.
func execute(ctx context.Context, opts options) (*result, string, error) {
	mk, ok := workloads[opts.workload]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", opts.workload)
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, "", err
	}
	tmp, err := os.MkdirTemp(opts.out, "run-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)

	r := newRun(opts, tmp)
	defer r.heap.close()
	w := mk()
	defer w.close()
	if err := r.measure(ctx, w, mk); err != nil {
		return nil, "", err
	}
	r.tally.record("golden canary", goldenCanary(ctx, opts.root)...)
	for _, p := range r.tally.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	var metrics map[string]metric
	if opts.trace {
		if metrics, err = r.perLayer(ctx); err != nil {
			return nil, "", err
		}
	} else {
		metrics = r.endToEnd()
	}
	return &result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   metrics,
	}, r.digest, nil
}

// run holds one benchmark run's samples.
type run struct {
	opts  options
	tmp   string
	dirs  int // store directories handed out under tmp
	start time.Time
	tally tally
	heap  *heapSampler

	digest string // sha256 of the workload's reference artifacts

	// End-to-end samples, from untraced rounds only. Times are process
	// CPU time (see cpuTime); the wall-clock figures beside them are
	// reported by the traced run.
	setupS    []float64
	planS     byVariant // CPU seconds of a cold execution of the workload's plan(s)
	wallPlanS byVariant
	pointMS   byVariant // CPU ms per simulated point
	pointCPU  float64   // CPU seconds summed over those points
	objects   float64   // simulated objects over those points
	allocMB   byVariant
	peakMB    byVariant
	jobMS     map[string][]float64 // CPU ms per job, one sample per tier phase, by cache tier
	wallJobMS map[string][]float64 // wall-clock latency per job, by cache tier

	// Traced-run samples.
	tracedPlanS byVariant            // CPU seconds of traced cold executions
	layers      map[string][]float64 // one value per traced round or plan, reported as the median
	pooled      map[string][]float64 // pooled samples, reported as percentiles
	spans       []span
	profiles    []string
	profile     *os.File // the running CPU profile
}

func newRun(opts options, tmp string) *run {
	return &run{
		opts:        opts,
		tmp:         tmp,
		start:       time.Now(),
		heap:        startHeapSampler(),
		planS:       byVariant{},
		tracedPlanS: byVariant{},
		wallPlanS:   byVariant{},
		pointMS:     byVariant{},
		allocMB:     byVariant{},
		peakMB:      byVariant{},
		jobMS:       map[string][]float64{},
		wallJobMS:   map[string][]float64{},
		layers:      map[string][]float64{},
		pooled:      map[string][]float64{},
	}
}

// measure sets w up, then runs rounds for the configured time,
// alternating untraced and traced rounds in a traced run. Between rounds
// it times set-ups of spare instances from mk, spread evenly over the
// rounds, so that setup_s samples the host across the run as the rounds
// do rather than only in its first second.
func (r *run) measure(ctx context.Context, w workloadRunner, mk func() workloadRunner) error {
	if err := r.timeSetup(ctx, w); err != nil {
		return err
	}
	spareSetups := func(n int) error {
		for len(r.setupS) < n {
			sw := mk()
			err := r.timeSetup(ctx, sw)
			sw.close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	var measured time.Duration
	for i := 0; i < minRounds || measured.Seconds() < r.opts.seconds; i++ {
		traced := r.opts.trace && i%2 == 1
		settle()
		start := time.Now()
		if traced {
			if err := r.startProfile(i); err != nil {
				return err
			}
		}
		err := w.round(ctx, r, i, traced)
		if perr := r.stopProfile(); err == nil {
			err = perr
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		measured += time.Since(start)
		if err := spareSetups(int(setupReps * min(1, measured.Seconds()/r.opts.seconds))); err != nil {
			return err
		}
	}
	if err := spareSetups(setupReps); err != nil {
		return err
	}
	return w.finish(ctx, r)
}

// timeSetup sets w up and records the process CPU time it took.
func (r *run) timeSetup(ctx context.Context, w workloadRunner) error {
	settle()
	cpu0 := processCPU()
	if err := w.setup(ctx, r); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setupS = append(r.setupS, (processCPU() - cpu0).Seconds())
	return nil
}

// settle collects the heap before a measured phase, so that it starts
// as a fresh process would and no phase pays for collecting an earlier
// phase's garbage.
func settle() { runtime.GC() }

func (r *run) startProfile(i int) error {
	path := filepath.Join(r.opts.out, fmt.Sprintf("%s-seed%d-cpu-%d.pprof", r.opts.workload, r.opts.seed, i))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.profiles = append(r.profiles, path)
	r.profile = f
	return nil
}

// stopProfile ends the round's CPU profile, if one is running; rounds
// call it themselves before their untimed tracing extras so those stay
// out of the profile.
func (r *run) stopProfile() error {
	if r.profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := r.profile.Close()
	r.profile = nil
	return err
}

// layer records one per-round value of a per-layer metric.
func (r *run) layer(name string, v float64) { r.layers[name] = append(r.layers[name], v) }

// pool adds samples to a pooled per-layer distribution.
func (r *run) pool(name string, vs ...float64) { r.pooled[name] = append(r.pooled[name], vs...) }

// Cache tiers of the job latency metrics.
const (
	tierCold = "cold"
	tierMem  = "mem"
	tierDisk = "disk"
)

// endToEnd assembles the end-to-end metrics.
func (r *run) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":           {median(r.setupS), "s"},
		"plan_s":            {r.planS.value(), "s"},
		"point_ms_p50":      {r.pointMS.quantile(0.5), "ms"},
		"point_ms_p90":      {r.pointMS.quantile(0.9), "ms"},
		"sim_objects_per_s": {ratio(r.objects, r.pointCPU), "1/s"},
		"host_alloc_mb":     {r.allocMB.value(), "MB"},
		"peak_heap_mb":      {r.peakMB.value(), "MB"},
	}
	for _, tier := range []string{tierCold, tierMem, tierDisk} {
		m["job_"+tier+"_ms_p50"] = metric{quantile(r.jobMS[tier], 0.5), "ms"}
		m["job_"+tier+"_ms_p90"] = metric{quantile(r.jobMS[tier], 0.9), "ms"}
	}
	return m
}

// span is one timed step of the traced run, written out at the end.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Job     string  `json:"job,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// addSpan records a span relative to the run's start and returns its id.
func (r *run) addSpan(name, job string, parent int, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		StartUS: float64(start.Sub(r.start).Microseconds()),
		EndUS:   float64(end.Sub(r.start).Microseconds()),
	})
	return id
}

func (r *run) writeSpans() error {
	sort.SliceStable(r.spans, func(i, k int) bool { return r.spans[i].StartUS < r.spans[k].StartUS })
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.opts.out, fmt.Sprintf("%s-seed%d-spans.json", r.opts.workload, r.opts.seed))
	return os.WriteFile(path, data, 0o644)
}
