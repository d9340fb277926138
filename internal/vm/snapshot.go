package vm

import (
	"context"
	"sync"

	"javasim/internal/workload"
)

// Warm-start sweep snapshots
//
// A sweep runs the same (workload, config) at many thread counts or
// offered rates. The VM's simulated state — heap, TLABs, scheduler,
// pending events — diverges between sweep points from the first event
// on, so none of it can be forked across points without changing
// results. What IS invariant is the workload generation stream: unit k
// of a run is a pure function of (spec, seed, k), because generation
// ignores which thread draws (see workload.Run). Profiling shows that
// stream — the lognormal/Zipf draw tower in workload.generate — is the
// single largest CPU component of a run, i.e. the per-point "warmup"
// that every sweep point used to repeat.
//
// A Snapshot therefore captures, once per (spec, config-minus-threads):
// the full pre-generated unit tape per iteration plus the end-of-tape
// RNG stream states (workload.Tape). Each sweep point forks from it by
// attaching the tapes to its workload Runs; replay is bit-identical to
// cold generation by construction, and runs that outlive the tape
// (open-system overflow) resume live drawing from cloned end states.
//
// The snapshot rides the context (ContextWithSnapshot), not the Config:
// a warm run and a cold run have identical configurations, so engine
// cache keys and disk-store fingerprints are identical by construction
// — snapshot-derived results land in (and hit) the same store entries
// as cold ones. A run whose context carries no snapshot runs cold.

// snapshotObserver, when non-nil, is called once per run that attaches a
// snapshot tape — a test hook (mirroring fuseObserver) so differential
// tests can prove the warm path actually engaged. Never set outside
// tests.
var snapshotObserver func()

// Snapshot is the reusable warm-start state for one sweep: one workload
// tape per iteration. It is immutable after construction and safe to
// share across concurrently executing runs.
type Snapshot struct {
	spec  workload.Spec
	seed  uint64
	tapes []*workload.Tape
}

// iterSeedStride derives iteration i's seed as Seed + i*stride; it must
// match startNextIteration.
const iterSeedStride = 0x9E3779B9

// maxTapeUnits caps a tape's pre-generated unit count (~a few MB of op
// records). Runs needing more units fall back to live generation at the
// tape end, bit-identically.
const maxTapeUnits = 1 << 16

// NewSnapshot pre-generates the workload tapes for every iteration of
// runs configured like cfg. The snapshot serves any run sharing the
// spec and seed — thread count, core count, and offered rate may vary
// freely across the sweep points that consume it.
func NewSnapshot(spec workload.Spec, cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.TotalUnits
	if cfg.Traffic.Open() && cfg.Traffic.Requests > n {
		n = cfg.Traffic.Requests
	}
	if n > maxTapeUnits {
		n = maxTapeUnits
	}
	tapes := make([]*workload.Tape, cfg.Iterations)
	for i := range tapes {
		t, err := workload.BuildTape(spec, cfg.Seed+uint64(i)*iterSeedStride, n)
		if err != nil {
			return nil, err
		}
		tapes[i] = t
	}
	return &Snapshot{spec: spec, seed: cfg.Seed, tapes: tapes}, nil
}

// Matches reports whether the snapshot can warm-start a run of (spec,
// cfg): same spec and same base seed. Correctness does not hinge on
// this check — Run.AttachTape re-verifies (spec, seed) per iteration
// and falls back to live generation on mismatch — it only avoids
// pointless attach attempts (e.g. a sweep's repeat runs under derived
// seeds).
func (s *Snapshot) Matches(spec workload.Spec, cfg Config) bool {
	return s != nil && spec == s.spec && cfg.withDefaults().Seed == s.seed
}

// Iterations returns the number of per-iteration tapes held.
func (s *Snapshot) Iterations() int { return len(s.tapes) }

// Units returns the pre-generated unit count of the first tape.
func (s *Snapshot) Units() int {
	if len(s.tapes) == 0 {
		return 0
	}
	return s.tapes[0].Len()
}

// SnapshotProvider builds its snapshot on first demand and then shares
// it. A sweep attaches a provider rather than a built snapshot so that
// fully cached sweeps — every point a memory or disk hit — never pay
// the tape generation; the first point that actually simulates resolves
// it, and concurrent points block on the same build.
type SnapshotProvider struct {
	spec workload.Spec
	cfg  Config
	once sync.Once
	snap *Snapshot
}

// NewSnapshotProvider prepares a lazy snapshot for runs of (spec, cfg).
func NewSnapshotProvider(spec workload.Spec, cfg Config) *SnapshotProvider {
	return &SnapshotProvider{spec: spec, cfg: cfg}
}

// Snapshot resolves the snapshot, building it on first call. It returns
// nil when the spec cannot build one (the run itself will surface the
// configuration error).
func (p *SnapshotProvider) Snapshot() *Snapshot {
	p.once.Do(func() { p.snap, _ = NewSnapshot(p.spec, p.cfg) })
	return p.snap
}

type snapshotCtxKey struct{}

// ContextWithSnapshot returns a context carrying the snapshot; RunContext
// warm-starts from it when the run's spec and seed match. A nil snapshot
// returns ctx unchanged.
func ContextWithSnapshot(ctx context.Context, s *Snapshot) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, snapshotCtxKey{}, s)
}

// ContextWithSnapshotProvider returns a context carrying a lazy snapshot
// source; SnapshotFrom resolves it only when a run consults it.
func ContextWithSnapshotProvider(ctx context.Context, p *SnapshotProvider) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, snapshotCtxKey{}, p)
}

// SnapshotFrom extracts the snapshot carried by ctx — resolving a lazy
// provider if that is what rides there — or nil.
func SnapshotFrom(ctx context.Context) *Snapshot {
	switch v := ctx.Value(snapshotCtxKey{}).(type) {
	case *Snapshot:
		return v
	case *SnapshotProvider:
		return v.Snapshot()
	}
	return nil
}
