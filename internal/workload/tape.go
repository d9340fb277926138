package workload

import (
	"fmt"
	"math"

	"javasim/internal/sim"
)

// Tape is an immutable, pre-generated unit sequence for one (spec, seed)
// pair — the warm-start snapshot of a workload's generation stream.
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
// A tape stores only the random draws, packed and pointer-free: per unit
// the compute budget and the end offsets of its draws (16 bytes), per
// allocation one uint32 (packAlloc), per critical section one 16-bit lock
// id. The durations the spec fixes (AllocGap, LockHold) are not stored;
// replay lays the ops out again from draws plus spec. A full-scale xalan
// tape (12,000 units, 378k ops) is 1.4 MB, against 17.6 MB for the same
// units as 48-byte Op records.
//
// A tape is safe to share across concurrently executing runs: it is
// read-only after Build, and each attached Run tracks its own replay
// position. End-of-tape RNG states are cloned per run on detach.
type Tape struct {
	spec   Spec
	seed   uint64
	units  []tapeUnit
	allocs []uint32 // every unit's packed allocation draws, in unit order
	locks  []uint16 // every unit's critical-section lock ids, in unit order

	// Stream states at the moment the last unit was generated; a run
	// that exhausts the tape resumes live generation from clones of
	// these, making replay+overflow bit-identical to never replaying.
	endRng     *sim.Rand
	endSiteRng *sim.Rand
	endLockPop *sim.Zipf
}

// tapeUnit is one unit's header on a tape. Unit k's draws are
// allocs[units[k-1].allocEnd:units[k].allocEnd] and likewise for locks.
type tapeUnit struct {
	budget   sim.Time
	allocEnd uint32
	lockEnd  uint32
}

// BuildTape generates the first n units of (spec, seed). n <= 0 defaults
// to spec.TotalUnits — a full closed-system run. Open-system runs may
// consume more than n units; replay then falls back to live generation
// seamlessly (see Run.AttachTape). A draw that does not fit its packed
// field — a lock id of a spec with more than 65536 shared locks — is an
// error; the caller then runs cold.
func BuildTape(spec Spec, seed uint64, n int) (*Tape, error) {
	r, err := NewRun(spec, 1, seed)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = spec.TotalUnits
	}
	t := &Tape{
		spec:   spec,
		seed:   seed,
		units:  make([]tapeUnit, n),
		allocs: make([]uint32, 0, spec.ObjectBound(n)),
	}
	d := &r.draws
	for k := range t.units {
		r.draw()
		t.allocs = append(t.allocs, d.allocs...)
		for _, lk := range d.locks {
			if lk > math.MaxUint16 {
				return nil, fmt.Errorf("workload %s: lock id %d does not fit a tape's 16-bit lock field", spec.Name, lk)
			}
			t.locks = append(t.locks, uint16(lk))
		}
		if uint64(len(t.allocs)) > math.MaxUint32 || uint64(len(t.locks)) > math.MaxUint32 {
			return nil, fmt.Errorf("workload %s: %d units overflow a tape's 32-bit offsets", spec.Name, n)
		}
		t.units[k] = tapeUnit{budget: d.budget, allocEnd: uint32(len(t.allocs)), lockEnd: uint32(len(t.locks))}
	}
	t.endRng = r.rng.Clone()
	t.endSiteRng = r.siteRng.Clone()
	if r.lockPop != nil {
		t.endLockPop = r.lockPop.Clone()
	}
	return t, nil
}

// unit returns unit k's draws.
func (t *Tape) unit(k int) (budget sim.Time, allocs []uint32, locks []uint16) {
	var a0, l0 uint32
	if k > 0 {
		a0, l0 = t.units[k-1].allocEnd, t.units[k-1].lockEnd
	}
	u := t.units[k]
	return u.budget, t.allocs[a0:u.allocEnd], t.locks[l0:u.lockEnd]
}

// Len returns the number of pre-generated units.
func (t *Tape) Len() int { return len(t.units) }

// Seed returns the seed the tape was generated from.
func (t *Tape) Seed() uint64 { return t.seed }
