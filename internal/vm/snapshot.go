package vm

import (
	"context"
	"slices"
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
// stream — the lognormal/Zipf draw tower in workload.Run.draw — is the
// single largest CPU component of a run, i.e. the per-point "warmup"
// that every sweep point used to repeat.
//
// A Snapshot therefore holds, per SnapshotKey, one workload tape per
// iteration (workload.Tape). Each sweep point forks from it by attaching
// the tapes to its workload Runs; replay is bit-identical to cold
// generation by construction, and runs that outlive the tape
// (open-system overflow) resume live drawing from cloned end states.
// Tapes draw their units in chunks as runs first read them, so building
// a snapshot costs next to nothing and nobody pays for units no run
// reaches.
//
// A SnapshotTable lets every sweep in flight that needs the same tapes
// share one provider, and so one draw: scenarios of a plan that repeat
// a (workload, seed) under other lock, GC or traffic settings replay
// the tapes the first one draws.
//
// The snapshot rides the context (ContextWithSnapshotProvider), not the
// Config: a warm run and a cold run have identical configurations, so
// engine cache keys and disk-store fingerprints are identical by
// construction — snapshot-derived results land in (and hit) the same
// store entries as cold ones. A run whose context carries no snapshot
// runs cold.

// snapshotObserver, when non-nil, is called once per run that attaches a
// snapshot tape — a test hook (mirroring fuseObserver) so differential
// tests can prove the warm path actually engaged. Never set outside
// tests.
var snapshotObserver func()

// Snapshot is the reusable warm-start state for one sweep: one workload
// tape per iteration. It is safe to share across concurrently executing
// runs.
type Snapshot struct {
	tapes []*workload.Tape
}

// iterSeedStride derives iteration i's seed as Seed + i*stride, for the
// live run (startNextIteration) and its tape alike.
const iterSeedStride = 0x9E3779B9

// maxTapeUnits caps a tape's unit count: ~118 B of packed draws per unit
// of a 25-allocation workload such as server, so ~8 MB per fully drawn
// capped tape. Runs needing more units fall back to live generation at
// the tape end, bit-identically.
const maxTapeUnits = 1 << 16

// SnapshotKey is the identity of the tapes NewSnapshot prepares: the
// spec, the base seed, the iteration count and the tape length. Runs
// whose configs share a key can replay one snapshot.
type SnapshotKey struct {
	Spec       workload.Spec
	Seed       uint64
	Iterations int
	// Units is the tape length: the spec's TotalUnits, or an open-system
	// run's request budget when larger, capped at maxTapeUnits.
	Units int
}

// SnapshotKeyOf returns the key of the snapshot for runs of (spec, cfg).
// Thread count, core count and offered rate do not enter it.
func SnapshotKeyOf(spec workload.Spec, cfg Config) SnapshotKey {
	n := spec.TotalUnits
	if cfg.Traffic.Open() && cfg.Traffic.Requests > n {
		n = cfg.Traffic.Requests
	}
	return SnapshotKey{Spec: spec, Seed: cfg.Seed, Iterations: max(cfg.Iterations, 1), Units: min(n, maxTapeUnits)}
}

// NewSnapshot prepares the workload tapes for every iteration of runs
// configured like cfg; their units are drawn as runs first read them.
// The snapshot serves any run sharing the spec and seed — thread count,
// core count, and offered rate may vary freely across the sweep points
// that consume it.
func NewSnapshot(spec workload.Spec, cfg Config) (*Snapshot, error) {
	return SnapshotKeyOf(spec, cfg).snapshot()
}

// snapshot prepares the snapshot the key names.
func (k SnapshotKey) snapshot() (*Snapshot, error) {
	if err := k.Spec.Validate(); err != nil {
		return nil, err
	}
	tapes := make([]*workload.Tape, k.Iterations)
	for i := range tapes {
		t, err := workload.BuildTape(k.Spec, k.Seed+uint64(i)*iterSeedStride, k.Units)
		if err != nil {
			return nil, err
		}
		tapes[i] = t
	}
	return &Snapshot{tapes: tapes}, nil
}

// Iterations returns the number of per-iteration tapes held.
func (s *Snapshot) Iterations() int { return len(s.tapes) }

// Units returns the unit count of the first tape, drawn or not.
func (s *Snapshot) Units() int {
	if len(s.tapes) == 0 {
		return 0
	}
	return s.tapes[0].Len()
}

// Drawn returns the units drawn so far across every tape.
func (s *Snapshot) Drawn() int {
	n := 0
	for _, t := range s.tapes {
		n += t.Drawn()
	}
	return n
}

// SnapshotProvider builds its snapshot on first demand and then shares
// it. A sweep attaches a provider rather than a built snapshot so that
// fully cached sweeps — every point a memory or disk hit — never touch
// a tape; the first point that actually simulates resolves it, and
// concurrent points block on the same build.
type SnapshotProvider struct {
	key  SnapshotKey
	refs int // sweeps holding the provider, under its table's mutex
	once sync.Once
	snap *Snapshot
}

// NewSnapshotProvider prepares a lazy snapshot for runs of (spec, cfg).
func NewSnapshotProvider(spec workload.Spec, cfg Config) *SnapshotProvider {
	return &SnapshotProvider{key: SnapshotKeyOf(spec, cfg)}
}

// Snapshot resolves the snapshot, building it on first call. It returns
// nil when the spec cannot build one: a configuration error, which the
// run itself will surface, or draws that do not fit a packed tape (see
// workload.BuildTape), in which case the runs go cold.
func (p *SnapshotProvider) Snapshot() *Snapshot {
	p.once.Do(func() { p.snap, _ = p.key.snapshot() })
	return p.snap
}

// SnapshotTable shares providers among the sweeps in flight: every
// sweep that acquires a key another holds gets the same provider, so
// their runs replay one set of tapes. A provider leaves the table when
// the last sweep holding it releases it, so no tape outlives its
// readers and the table holds only what is in flight. The zero value is
// an empty table, safe for concurrent use.
type SnapshotTable struct {
	mu   sync.Mutex
	live []*SnapshotProvider // few: one per distinct key in flight
}

// Acquire returns the table's provider for runs of (spec, cfg), adding
// one if no sweep in flight holds its key. Acquiring builds nothing;
// the provider resolves on first demand. Pair every Acquire with a
// Release.
func (t *SnapshotTable) Acquire(spec workload.Spec, cfg Config) *SnapshotProvider {
	key := SnapshotKeyOf(spec, cfg)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.live {
		if p.key == key {
			p.refs++
			return p
		}
	}
	p := &SnapshotProvider{key: key, refs: 1}
	t.live = append(t.live, p)
	return p
}

// Release drops one hold on p, removing it from the table with the
// last.
func (t *SnapshotTable) Release(p *SnapshotProvider) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.refs--; p.refs == 0 {
		i := slices.Index(t.live, p)
		t.live = slices.Delete(t.live, i, i+1)
	}
}

// Len returns the number of providers in the table.
func (t *SnapshotTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

type snapshotCtxKey struct{}

// ContextWithSnapshotProvider returns a context carrying a lazy snapshot
// source; SnapshotFrom resolves it only when a run consults it, and
// RunContext warm-starts from it when the run's spec and seed match.
func ContextWithSnapshotProvider(ctx context.Context, p *SnapshotProvider) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, snapshotCtxKey{}, p)
}

// SnapshotFrom resolves the provider carried by ctx and returns its
// snapshot, or nil.
func SnapshotFrom(ctx context.Context) *Snapshot {
	if p, ok := ctx.Value(snapshotCtxKey{}).(*SnapshotProvider); ok {
		return p.Snapshot()
	}
	return nil
}
