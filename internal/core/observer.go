package core

import (
	"context"
	"fmt"

	"javasim/internal/sim"
)

// EventKind classifies an engine progress event.
type EventKind int

const (
	// RunStarted fires when a simulation is actually dispatched to a
	// worker slot (cache hits never produce it).
	RunStarted EventKind = iota
	// RunFinished fires when a dispatched simulation returns; Err carries
	// its failure, if any.
	RunFinished
	// RunCached fires when a run request is answered from the engine's
	// memoizing result cache without simulating.
	RunCached
	// SweepPointDone fires as each point of a sweep completes (whether
	// simulated or cached).
	SweepPointDone
	// SweepDone fires when a whole sweep is assembled.
	SweepDone
	// ArtifactRendered fires when a plan report has been rendered;
	// Artifact names it.
	ArtifactRendered
	// ScenarioDone fires when a plan scenario's sweeps and outputs are
	// complete; Scenario names it.
	ScenarioDone
	// PlanDone fires when a whole plan — every scenario and report — has
	// executed; Plan names it.
	PlanDone
)

// String returns the kind's wire-stable name.
func (k EventKind) String() string {
	switch k {
	case RunStarted:
		return "run-started"
	case RunFinished:
		return "run-finished"
	case RunCached:
		return "run-cached"
	case SweepPointDone:
		return "sweep-point-done"
	case SweepDone:
		return "sweep-done"
	case ArtifactRendered:
		return "artifact-rendered"
	case ScenarioDone:
		return "scenario-done"
	case PlanDone:
		return "plan-done"
	default:
		return fmt.Sprintf("event-kind-%d", int(k))
	}
}

// Event is one progress notification from an Engine. Fields beyond Kind
// are populated where they make sense: run and sweep events carry the
// workload identity, artifact events carry the artifact name.
type Event struct {
	Kind EventKind
	// Workload is the benchmark name for run and sweep events.
	Workload string
	// Threads is the mutator thread count of the run or sweep point.
	Threads int
	// Seed is the deterministic seed of the run.
	Seed uint64
	// VirtualTime is the simulated duration of a finished run.
	VirtualTime sim.Time
	// Artifact names the rendered figure/table for ArtifactRendered.
	Artifact string
	// Scenario names the completed scenario for ScenarioDone.
	Scenario string
	// Plan names the completed plan for PlanDone.
	Plan string
	// Err is the failure of a finished run, nil on success.
	Err error
}

// String renders the event for logs and progress displays.
func (e Event) String() string {
	switch e.Kind {
	case ArtifactRendered:
		return fmt.Sprintf("%s %s", e.Kind, e.Artifact)
	case RunFinished:
		if e.Err != nil {
			return fmt.Sprintf("%s %s t=%d error: %v", e.Kind, e.Workload, e.Threads, e.Err)
		}
		return fmt.Sprintf("%s %s t=%d virtual=%v", e.Kind, e.Workload, e.Threads, e.VirtualTime)
	case SweepDone:
		return fmt.Sprintf("%s %s", e.Kind, e.Workload)
	case ScenarioDone:
		return fmt.Sprintf("%s %s (%s)", e.Kind, e.Scenario, e.Workload)
	case PlanDone:
		return fmt.Sprintf("%s %s", e.Kind, e.Plan)
	default:
		return fmt.Sprintf("%s %s t=%d", e.Kind, e.Workload, e.Threads)
	}
}

// Observer receives engine progress events. Events are delivered
// synchronously from whatever goroutine produced them — possibly several
// at once under a parallel sweep — so implementations must be safe for
// concurrent use and should return quickly.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(ev).
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// observerCtxKey keys the context-scoped observer.
type observerCtxKey struct{}

// ContextWithObserver returns a context that routes every engine event
// produced by work dispatched under it to o, in addition to the
// engine's own observers. This is how a server multiplexing many
// concurrent plans over one shared engine attributes progress to the
// right client: each plan runs under its own observer-carrying context,
// and cache hits are reported to whichever plan requested them, even
// when the simulation that populated the cache belonged to another.
// The same concurrency contract as WithObserver applies.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerCtxKey{}, o)
}

// contextObserver extracts the observer attached by ContextWithObserver,
// or nil.
func contextObserver(ctx context.Context) Observer {
	o, _ := ctx.Value(observerCtxKey{}).(Observer)
	return o
}
