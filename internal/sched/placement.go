package sched

import "javasim/internal/registry"

// Where a waking thread's segment runs is a Placement: the discipline that
// picks the run queue for every enqueue. The seed behavior — prefer the
// thread's last core when free, otherwise the least-loaded queue with a
// home-socket tie-break — is the "affinity" placement; "round-robin" and
// "least-loaded" trade cache/NUMA locality for spread. Placements may hold
// per-scheduler state (the round-robin cursor), so each Scheduler builds
// its own instance from the Placements catalog.

// Registry names of the built-in placements.
const (
	// PlacementAffinity prefers the thread's last core when idle, else the
	// least-loaded queue, breaking ties toward the home socket — the seed
	// behavior.
	PlacementAffinity = "affinity"
	// PlacementRoundRobin rotates enqueues across cores regardless of load
	// or locality.
	PlacementRoundRobin = "round-robin"
	// PlacementLeastLoaded always picks the shortest queue (ties to the
	// lowest index), ignoring cache affinity and NUMA homes.
	PlacementLeastLoaded = "least-loaded"
)

// Placement chooses the run queue for a waking thread. PickCore returns
// an index into the scheduler's core slice (not a machine core ID).
// Implementations run inside the single-threaded simulation and must be
// deterministic.
type Placement interface {
	// Name returns the discipline's canonical name (for the built-ins,
	// their registry name). A variant registered under a custom key still
	// reports its family name here — the selected key travels in the
	// config string and vm.Result.Placement.
	Name() string
	// PickCore returns the run-queue index thread t joins.
	PickCore(sc *Scheduler, t *Thread) int
}

// Placements is the placement catalog. Entries are factories that must
// return a fresh instance per call — placements may hold per-scheduler
// state. The empty name selects affinity.
var Placements = registry.New[func() Placement]("placement", PlacementAffinity, nil)

func init() {
	Placements.MustRegister(PlacementAffinity, func() Placement { return affinityPlacement{} })
	Placements.MustRegister(PlacementRoundRobin, func() Placement { return &roundRobinPlacement{} })
	Placements.MustRegister(PlacementLeastLoaded, func() Placement { return leastLoadedPlacement{} })
}

// --- Built-in placements -----------------------------------------------

type affinityPlacement struct{}

func (affinityPlacement) Name() string { return PlacementAffinity }

// PickCore prefers the thread's last core when that core is free,
// otherwise the least-loaded core, breaking ties toward the thread's home
// socket, then (on CMT machines) toward the least-crowded pipeline, and
// finally the lowest index (determinism). The pipeline tie-break spreads
// sibling hardware threads across distinct issue pipelines before
// doubling up strands.
func (affinityPlacement) PickCore(sc *Scheduler, t *Thread) int {
	if t.core >= 0 {
		if idx, ok := sc.coreIndex(t.core); ok {
			c := &sc.cores[idx]
			if c.current == nil && len(c.queue) == 0 && sc.eligible(t) {
				return idx
			}
		}
	}
	cmt := sc.CMT()
	best, bestLoad, bestAffine, bestPipe := -1, int(^uint(0)>>1), false, 0
	for i := range sc.cores {
		load := sc.CoreLoad(i)
		affine := t.HomeSocket() >= 0 && sc.SocketOfCore(i) == t.HomeSocket()
		pipe := 0
		if cmt {
			pipe = sc.PipelineLoad(i)
		}
		better := load < bestLoad ||
			(load == bestLoad && affine && !bestAffine) ||
			(cmt && load == bestLoad && affine == bestAffine && pipe < bestPipe)
		if better {
			best, bestLoad, bestAffine, bestPipe = i, load, affine, pipe
		}
	}
	return best
}

type roundRobinPlacement struct {
	next int
}

func (*roundRobinPlacement) Name() string { return PlacementRoundRobin }

// PickCore rotates across run queues, blind to load, locality, and the
// thread's history.
func (p *roundRobinPlacement) PickCore(sc *Scheduler, t *Thread) int {
	idx := p.next % len(sc.cores)
	p.next++
	return idx
}

type leastLoadedPlacement struct{}

func (leastLoadedPlacement) Name() string { return PlacementLeastLoaded }

// PickCore returns the core with the fewest resident threads, breaking
// ties (on CMT machines) toward the least-crowded pipeline and then the
// lowest index.
func (leastLoadedPlacement) PickCore(sc *Scheduler, t *Thread) int {
	cmt := sc.CMT()
	best, bestLoad, bestPipe := 0, int(^uint(0)>>1), 0
	for i := range sc.cores {
		load := sc.CoreLoad(i)
		pipe := 0
		if cmt {
			pipe = sc.PipelineLoad(i)
		}
		if load < bestLoad || (cmt && load == bestLoad && pipe < bestPipe) {
			best, bestLoad, bestPipe = i, load, pipe
		}
	}
	return best
}
