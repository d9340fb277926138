package workload

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"javasim/internal/sim"
)

// Tape is the warm-start snapshot of a workload's generation stream: the
// first Len units of one (spec, seed) pair, drawn once and replayed by
// every run attached to it.
//
// Unit generation is the thread-count-invariant part of a run's warmup:
// draw ignores which thread is asking, so the k-th unit taken is a
// pure function of (spec, seed, k) at every thread count and offered
// rate. A tape captures that sequence once; every sweep point then
// replays it instead of re-deriving the same lognormal/Zipf draws, which
// profiling shows is the single largest CPU component of a run. What a
// tape deliberately does NOT capture is simulated VM state (heap, TLABs,
// scheduler, pending events): those diverge between sweep points from
// the first event on, so any "fork" of them would not be bit-identical
// to a cold run. See docs/architecture.md.
//
// A tape is drawn lazily, in chunks of tapeChunkUnits units: the first
// attached run to read a chunk draws it (and any chunk before it) under
// the tape's mutex, and publishes it for every other reader with one
// atomic store. Open-system runs often stop well short of a tape's end,
// so the units nobody reads are never drawn.
//
// A chunk stores only the random draws, packed and pointer-free: per unit
// the compute budget and the end offsets of its draws (16 bytes), per
// allocation one uint32 (packAlloc), per critical section one 16-bit lock
// id. The durations the spec fixes (AllocGap, LockHold) are not stored;
// replay lays the ops out again from draws plus spec. A full-scale xalan
// tape (12,000 units, 378k ops) is 1.4 MB, against 17.6 MB for the same
// units as 48-byte Op records.
//
// A tape is safe to share across concurrently executing runs: published
// chunks are immutable, and each attached Run tracks its own replay
// position. End-of-tape RNG states are cloned per run on detach.
type Tape struct {
	spec   Spec
	seed   uint64
	n      int                         // units on the tape
	chunks []atomic.Pointer[tapeChunk] // nil until drawn

	mu    sync.Mutex
	gen   *Run // the generator, positioned after the drawn chunks; nil once all are drawn
	drawn int  // chunks drawn

	// Stream states after the last unit was drawn, set before the last
	// chunk is published; a run that exhausts the tape resumes live
	// generation from clones of these, making replay+overflow
	// bit-identical to never replaying.
	endRng     *sim.Rand
	endSiteRng *sim.Rand
	endLockPop *sim.Zipf
}

// tapeChunkUnits is the number of units drawn at a time.
const tapeChunkUnits = 1024

// tapeChunk is tapeChunkUnits consecutive units of a tape (fewer for the
// last chunk). Unit i's draws are allocs[units[i-1].allocEnd:
// units[i].allocEnd] and likewise for locks.
type tapeChunk struct {
	units  []tapeUnit
	allocs []uint32 // the chunk's packed allocation draws, in unit order
	locks  []uint16 // the chunk's critical-section lock ids, in unit order
}

// tapeUnit is one unit's header in a chunk.
type tapeUnit struct {
	budget   sim.Time
	allocEnd uint32
	lockEnd  uint32
}

// BuildTape prepares a tape of the first n units of (spec, seed); the
// units are drawn as attached runs first read them. n <= 0 defaults to
// spec.TotalUnits — a full closed-system run. Open-system runs may
// consume more than n units; replay then falls back to live generation
// seamlessly (see Run.AttachTape). A spec whose draws may not fit their
// packed fields — more than 65,536 shared locks, or more draws per chunk
// than a 32-bit offset holds — is an error; the caller then runs cold.
func BuildTape(spec Spec, seed uint64, n int) (*Tape, error) {
	if spec.LockOpsPerUnit > 0 && spec.SharedLocks > math.MaxUint16+1 {
		return nil, fmt.Errorf("workload %s: lock id %d does not fit a tape's 16-bit lock field", spec.Name, spec.SharedLocks-1)
	}
	if n <= 0 {
		n = spec.TotalUnits
	}
	span := spec.AllocsPerUnit / 2
	perUnit := max(spec.AllocsPerUnit-span/2+span, int(spec.LockOpsPerUnit)+1)
	if int64(perUnit)*tapeChunkUnits > math.MaxUint32 {
		return nil, fmt.Errorf("workload %s: %d units overflow a tape's 32-bit offsets", spec.Name, n)
	}
	gen, err := NewRun(spec, 1, seed)
	if err != nil {
		return nil, err
	}
	return &Tape{
		spec:   spec,
		seed:   seed,
		n:      n,
		chunks: make([]atomic.Pointer[tapeChunk], (n+tapeChunkUnits-1)/tapeChunkUnits),
		gen:    gen,
	}, nil
}

// chunk returns chunk c, drawing it and every chunk before it on first
// demand.
func (t *Tape) chunk(c int) *tapeChunk {
	if ch := t.chunks[c].Load(); ch != nil {
		return ch
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.drawn <= c {
		t.drawChunk()
	}
	return t.chunks[c].Load()
}

// drawChunk draws and publishes the next chunk; t.mu must be held.
func (t *Tape) drawChunk() {
	r := t.gen
	n := min(tapeChunkUnits, t.n-t.drawn*tapeChunkUnits)
	ch := &tapeChunk{
		units:  make([]tapeUnit, n),
		allocs: make([]uint32, 0, t.spec.ObjectBound(n)),
	}
	if t.spec.LockOpsPerUnit > 0 {
		ch.locks = make([]uint16, 0, n*(int(t.spec.LockOpsPerUnit)+1))
	}
	d := &r.draws
	for k := range ch.units {
		r.draw()
		ch.allocs = append(ch.allocs, d.allocs...)
		for _, lk := range d.locks {
			ch.locks = append(ch.locks, uint16(lk))
		}
		ch.units[k] = tapeUnit{budget: d.budget, allocEnd: uint32(len(ch.allocs)), lockEnd: uint32(len(ch.locks))}
	}
	c := t.drawn
	t.drawn++
	if t.drawn == len(t.chunks) {
		t.endRng, t.endSiteRng, t.endLockPop = r.rng, r.siteRng, r.lockPop
		t.gen = nil
	}
	t.chunks[c].Store(ch)
}

// unit returns unit k's draws.
func (ch *tapeChunk) unit(k int) (budget sim.Time, allocs []uint32, locks []uint16) {
	var a0, l0 uint32
	if k > 0 {
		a0, l0 = ch.units[k-1].allocEnd, ch.units[k-1].lockEnd
	}
	u := ch.units[k]
	return u.budget, ch.allocs[a0:u.allocEnd], ch.locks[l0:u.lockEnd]
}

// Len returns the number of units on the tape, drawn or not.
func (t *Tape) Len() int { return t.n }

// Drawn returns the number of units drawn so far.
func (t *Tape) Drawn() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return min(t.drawn*tapeChunkUnits, t.n)
}

// Seed returns the seed the tape was generated from.
func (t *Tape) Seed() uint64 { return t.seed }
