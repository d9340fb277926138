package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"javasim/internal/metrics"
	"javasim/internal/sim"
)

// Trace analysis: lifespan statistics from paired Alloc/Death events,
// plus the per-thread and time-windowed views the Elephant Tracks
// ecosystem's downstream tools computed from its traces.

// ThreadProfile aggregates one thread's allocation behavior.
type ThreadProfile struct {
	Thread     int32
	Allocs     int64
	AllocBytes int64
	// Lifespans is the lifespan distribution of objects this thread
	// allocated.
	Lifespans *metrics.Histogram
}

// ChurnWindow is allocation volume within one fixed time window.
type ChurnWindow struct {
	Start      sim.Time
	AllocBytes int64
	Deaths     int64
}

// Analysis summarizes a trace.
type Analysis struct {
	Events    int64
	Allocs    int64
	Deaths    int64
	GCs       int64
	Lifespans *metrics.Histogram
	// Leaked counts objects with an Alloc but no Death event.
	Leaked int64
	// Threads holds per-thread profiles, sorted by thread ID.
	Threads []ThreadProfile
	// Churn is allocation volume per window, in time order.
	Churn []ChurnWindow
	// WindowSize is the churn bucketing granularity.
	WindowSize sim.Time
}

// ctxCheckInterval is how many streamed events the analysis loop lets
// pass between context checks — frequent enough that cancellation of a
// huge trace analysis is prompt, rare enough to cost nothing.
const ctxCheckInterval = 8192

// Analyze streams a trace and computes lifespan statistics by pairing
// each object's Alloc and Death clocks — exactly how the paper's Figure
// 1c/1d distributions are derived from Elephant Tracks output — with the
// per-thread and churn views alongside. The churn windows use the given
// granularity; zero selects 1ms. The streaming loop checks ctx every
// ctxCheckInterval events, so analyses of arbitrarily large trace files
// abort promptly.
func Analyze(ctx context.Context, r *Reader, window sim.Time) (*Analysis, error) {
	if window <= 0 {
		window = sim.Millisecond
	}
	a := &Analysis{Lifespans: metrics.NewHistogram("lifespan-bytes"), WindowSize: window}
	type birth struct {
		clock  int64
		thread int32
	}
	births := make(map[uint32]birth)
	threads := make(map[int32]*ThreadProfile)
	churn := make(map[sim.Time]*ChurnWindow)

	threadOf := func(id int32) *ThreadProfile {
		tp := threads[id]
		if tp == nil {
			tp = &ThreadProfile{
				Thread:    id,
				Lifespans: metrics.NewHistogram(fmt.Sprintf("thread-%d-lifespans", id)),
			}
			threads[id] = tp
		}
		return tp
	}
	windowOf := func(tm sim.Time) *ChurnWindow {
		start := tm / window * window
		w := churn[start]
		if w == nil {
			w = &ChurnWindow{Start: start}
			churn[start] = w
		}
		return w
	}

	for {
		if a.Events%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Events++
		switch ev.Kind {
		case Alloc:
			a.Allocs++
			births[ev.Object] = birth{clock: ev.Clock, thread: ev.Thread}
			tp := threadOf(ev.Thread)
			tp.Allocs++
			tp.AllocBytes += int64(ev.Size)
			windowOf(ev.Time).AllocBytes += int64(ev.Size)
		case Death:
			a.Deaths++
			b, ok := births[ev.Object]
			if !ok {
				return nil, fmt.Errorf("trace: death of unknown object %d", ev.Object)
			}
			delete(births, ev.Object)
			ls := ev.Clock - b.clock
			a.Lifespans.Add(ls)
			threadOf(b.thread).Lifespans.Add(ls)
			windowOf(ev.Time).Deaths++
		case GCStart:
			a.GCs++
		}
	}
	a.Leaked = int64(len(births))

	for _, tp := range threads {
		a.Threads = append(a.Threads, *tp)
	}
	sort.Slice(a.Threads, func(i, j int) bool { return a.Threads[i].Thread < a.Threads[j].Thread })
	for _, w := range churn {
		a.Churn = append(a.Churn, *w)
	}
	sort.Slice(a.Churn, func(i, j int) bool { return a.Churn[i].Start < a.Churn[j].Start })
	return a, nil
}
