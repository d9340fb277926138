package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"javasim/internal/core"
	"javasim/internal/store"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// pointRec is one simulation the engine dispatched to its runner.
type pointRec struct {
	spec       workload.Spec
	cfg        vm.Config
	start, end time.Time
	cpu        time.Duration // CPU time of the simulating thread
	res        *vm.Result
	err        error
}

func (p pointRec) dur() time.Duration { return p.end.Sub(p.start) }

// eventRec is one engine progress event with the time it was observed.
type eventRec struct {
	kind core.EventKind
	at   time.Time
}

// probe measures an engine from outside: its Runner wraps vm.RunContext
// with a timer, and (when tracing) its Observer timestamps the engine's
// progress events. take drains what was recorded since the last take.
type probe struct {
	mu     sync.Mutex
	points []pointRec
	events []eventRec
}

func (p *probe) run(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	// Holding the OS thread makes the thread's CPU clock the run's own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), cpuTime(clockThreadCPU)
	res, err := vm.RunContext(ctx, spec, cfg)
	rec := pointRec{spec: spec, cfg: cfg, start: start, end: time.Now(),
		cpu: cpuTime(clockThreadCPU) - cpu0, res: res, err: err}
	p.mu.Lock()
	p.points = append(p.points, rec)
	p.mu.Unlock()
	return res, err
}

func (p *probe) Observe(ev core.Event) {
	switch ev.Kind {
	case core.RunStarted, core.RunFinished, core.ScenarioDone, core.PlanDone:
		at := time.Now()
		p.mu.Lock()
		p.events = append(p.events, eventRec{ev.Kind, at})
		p.mu.Unlock()
	}
}

func (p *probe) take() ([]pointRec, []eventRec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pts, evs := p.points, p.events
	p.points, p.events = nil, nil
	return pts, evs
}

// engineOptions builds an engine that runs simulations through p's
// runner, adding p as an observer when traced.
func (p *probe) engineOptions(traced bool, extra ...core.Option) []core.Option {
	opts := []core.Option{core.WithParallelism(parallelism), core.WithRunner(p.run)}
	if traced {
		opts = append(opts, core.WithObserver(p))
	}
	return append(opts, extra...)
}

// timedStore decorates the engine's disk tier with per-call timings.
type timedStore struct {
	st   *store.Store
	mu   sync.Mutex
	gets []float64 // ms
	puts []float64 // ms
}

func (t *timedStore) Get(fp string) (*vm.Result, bool) {
	start := time.Now()
	res, ok := t.st.Get(fp)
	t.record(&t.gets, time.Since(start))
	return res, ok
}

func (t *timedStore) Put(fp string, res *vm.Result) {
	start := time.Now()
	t.st.Put(fp, res)
	t.record(&t.puts, time.Since(start))
}

func (t *timedStore) record(into *[]float64, d time.Duration) {
	t.mu.Lock()
	*into = append(*into, ms(d))
	t.mu.Unlock()
}

// diskTier is the ResultStore an engine is given: the store itself, or
// the timing decorator around it when traced.
func diskTier(st *store.Store, ts *timedStore) core.ResultStore {
	if ts != nil {
		return ts
	}
	return st
}

// CPU clocks of clock_gettime(2), which the syscall package does not name.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads a CPU clock: of the whole process (clockProcessCPU) or
// of the calling thread (clockThreadCPU). Unlike wall time it excludes
// time the hypervisor gave the CPUs to other guests, which on a shared VM
// swings wall-clock figures by tens of percent from minute to minute.
// Unlike getrusage, the process clock includes the CPU time other
// threads have run up to now, not only up to their last scheduler tick.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of the whole process.
func processCPU() time.Duration { return cpuTime(clockProcessCPU) }

// readRuntime reads one runtime/metrics uint64 sample.
func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative Go heap allocation of the process.
func allocatedBytes() uint64 { return readRuntime("/gc/heap/allocs:bytes") }

// heapSampler tracks the peak in-use Go heap by sampling it periodically.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readRuntime("/memory/classes/heap/objects:bytes")
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// takePeak returns the peak since the previous takePeak and restarts the
// tracking from the current heap size.
func (h *heapSampler) takePeak() uint64 {
	h.sample()
	return h.peak.Swap(0)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
