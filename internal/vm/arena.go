package vm

import (
	"context"
	"sync/atomic"

	"javasim/internal/gc"
	"javasim/internal/objmodel"
)

// Run arenas
//
// Most of the host memory a run allocates goes into buffers it fills
// and then drops: the registry's record pages, the collector's young
// and old lists, and the mutators' death-ring buckets. A worker that
// runs many points in turn would regrow each from empty every run. An
// Arena keeps them between runs: a run takes them and resets them, and
// keeps only what it used. The registry pages above its high-water mark
// go when it hands the arena back; the young lists of compartments and
// the rings of mutators it does not have go when it takes them.
//
// The arena rides the context (ContextWithArena), as the warm-start
// snapshot does, and never the Config, so fingerprints and results do
// not depend on it. A run whose context carries none, or one another run
// holds, takes a fresh zero arena through the same code. An arena is
// meant to live as long as one worker of one plan: a process-wide pool
// would keep the largest run's buffers alive past the plan, and what a
// run reuses would depend on GC timing and on which goroutine asks
// first.

// Arena holds the buffers one run at a time reuses. The zero value is
// an empty arena, ready to use.
type Arena struct {
	busy  atomic.Bool
	reg   objmodel.Registry
	young [][]objmodel.ID
	old   []objmodel.ID
	rings []deathRings
}

// deathRings is one mutator's death schedule. allocRing buckets objects
// dying after N more own allocations; unitRing buckets objects dying at
// future unit ends.
type deathRings struct {
	allocRing [16][]objmodel.ID
	unitRing  [64][]objmodel.ID
}

// reset empties every bucket and keeps its capacity.
func (d *deathRings) reset() {
	for i := range d.allocRing {
		d.allocRing[i] = d.allocRing[i][:0]
	}
	for i := range d.unitRing {
		d.unitRing[i] = d.unitRing[i][:0]
	}
}

type arenaCtxKey struct{}

// ContextWithArena returns a context whose runs reuse a's buffers; a
// nil a returns ctx. Runs sharing a context one after another reuse
// them in turn; a run started while another holds a takes a fresh arena
// instead.
func ContextWithArena(ctx context.Context, a *Arena) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, arenaCtxKey{}, a)
}

// takeArena claims the arena ctx carries, or returns a fresh one when it
// carries none or another run holds it. Pair it with handBack.
func takeArena(ctx context.Context) *Arena {
	if a, ok := ctx.Value(arenaCtxKey{}).(*Arena); ok && a.busy.CompareAndSwap(false, true) {
		return a
	}
	return new(Arena)
}

// mutatorRings returns the death rings of a run's n mutators, emptied,
// and drops those of mutators beyond n.
func (a *Arena) mutatorRings(n int) []deathRings {
	if len(a.rings) < n {
		a.rings = append(a.rings, make([]deathRings, n-len(a.rings))...)
	}
	clear(a.rings[n:])
	a.rings = a.rings[:n]
	for i := range a.rings {
		a.rings[i].reset()
	}
	return a.rings
}

// handBack keeps the buffers the run grew for the next run, without the
// registry pages above its high-water mark, and releases the arena; c
// is the run's collector.
func (a *Arena) handBack(c *gc.Collector) {
	a.reg.Trim()
	a.young, a.old = c.Buffers()
	a.busy.Store(false)
}
