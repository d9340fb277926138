package vm

import (
	"context"
	"testing"

	"javasim/internal/sim"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// The warm-start contract: a run forked from a snapshot (tape replay)
// and a cold run of the same configuration produce bit-identical
// Results, and the two fingerprint identically because the snapshot
// rides the context, never the Config. These tests exercise it across
// the whole paper workload set, multi-iteration runs, and open-system
// traffic — including a tape shorter than the run, which must hand back
// to live generation seamlessly.

// runSnapshotPair executes (spec, cfg) warm — RunContext with p on the
// context — and cold, asserting the warm run actually attached a tape (a
// differential test that never replays proves nothing).
func runSnapshotPair(t *testing.T, spec workload.Spec, cfg Config, p *SnapshotProvider) (*Result, *Result) {
	t.Helper()
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	warm, err := RunContext(ContextWithSnapshotProvider(context.Background(), p), spec, cfg)
	if err != nil {
		t.Fatalf("%s warm run: %v", spec.Name, err)
	}
	if attaches == 0 {
		t.Errorf("%s: snapshot never attached; differential comparison is vacuous", spec.Name)
	}

	cold, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s cold run: %v", spec.Name, err)
	}
	return warm, cold
}

// TestSnapshotDifferentialPaperSet builds one snapshot per paper
// workload — the sweep shape: config minus threads — and requires every
// thread count forked from it to match its cold run exactly.
func TestSnapshotDifferentialPaperSet(t *testing.T) {
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.04)
		p := NewSnapshotProvider(spec, Config{Seed: 11})
		for _, threads := range []int{4, 16} {
			warm, cold := runSnapshotPair(t, spec, Config{Threads: threads, Seed: 11}, p)
			diffResults(t, spec.Name, warm, cold)
		}
	}
}

// TestSnapshotDifferentialFeatureMatrix covers the run shapes that
// interact with tape replay: per-iteration tapes, and the open-system
// dispatch path (TakeOpen) with request counts above the unit pool.
func TestSnapshotDifferentialFeatureMatrix(t *testing.T) {
	xalan := workload.XalanSpec().Scale(0.04)
	server := workload.ServerSpec().Scale(0.04)
	open := traffic.Config{
		Process:    traffic.ProcessPoisson,
		RatePerSec: 200000,
		Requests:   server.TotalUnits + 200,
		Timeout:    2 * sim.Millisecond,
	}
	cases := []struct {
		name string
		spec workload.Spec
		cfg  Config
	}{
		{"iterations", xalan, Config{Threads: 4, Seed: 3, Iterations: 2}},
		{"open-poisson", server, Config{Threads: 8, Seed: 3, Traffic: open}},
		{"open-bursty", server, Config{Threads: 8, Seed: 3,
			Traffic: traffic.Config{Process: traffic.ProcessBursty, RatePerSec: 150000, Requests: 400}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewSnapshotProvider(c.spec, c.cfg)
			snap := p.Snapshot()
			if snap == nil {
				t.Fatal("snapshot did not build")
			}
			if c.cfg.Iterations > 1 && snap.Iterations() != c.cfg.Iterations {
				t.Fatalf("snapshot holds %d tapes, want %d", snap.Iterations(), c.cfg.Iterations)
			}
			warm, cold := runSnapshotPair(t, c.spec, c.cfg, p)
			diffResults(t, c.name, warm, cold)
		})
	}
}

// TestSnapshotShortTapeOverflow attaches a tape far shorter than the
// run and requires the mid-run handoff to live generation to stay
// bit-identical — the guard for open-system runs that outlive the
// maxTapeUnits cap.
func TestSnapshotShortTapeOverflow(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.04)
	cfg := Config{Threads: 4, Seed: 9}
	p := &SnapshotProvider{key: SnapshotKey{Spec: spec, Seed: cfg.withDefaults().Seed, Iterations: 1, Units: 8}}
	warm, cold := runSnapshotPair(t, spec, cfg, p)
	diffResults(t, "short-tape", warm, cold)
}

// TestSnapshotSeedMismatchStaysCold pins the Matches self-guard: a
// snapshot built for another seed must be skipped, not misapplied —
// sweeps run repeats under derived seeds through the same context.
func TestSnapshotSeedMismatchStaysCold(t *testing.T) {
	spec := workload.SunflowSpec().Scale(0.04)
	p := NewSnapshotProvider(spec, Config{Seed: 12})
	if p.Snapshot() == nil {
		t.Fatal("seed-12 snapshot did not build")
	}
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	cfg := Config{Threads: 4, Seed: 11}
	warm, err := RunContext(ContextWithSnapshotProvider(context.Background(), p), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attaches != 0 {
		t.Errorf("mismatched snapshot attached anyway (%d attaches)", attaches)
	}
	cold, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "seed-mismatch", warm, cold)
}

// TestSnapshotProviderResolvesLazily pins the sweep plumbing: the
// provider builds nothing until a run consults the context, then shares
// one snapshot across runs.
func TestSnapshotProviderResolvesLazily(t *testing.T) {
	spec := workload.SunflowSpec().Scale(0.04)
	cfg := Config{Threads: 4, Seed: 11}
	p := NewSnapshotProvider(spec, cfg)
	if p.snap != nil {
		t.Fatal("provider built its snapshot before any run consulted it")
	}
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	ctx := ContextWithSnapshotProvider(context.Background(), p)
	warm, err := RunContext(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.snap == nil {
		t.Fatal("provider did not resolve during the run")
	}
	if attaches != 1 {
		t.Errorf("expected 1 tape attach through the provider, got %d", attaches)
	}
	cold, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "provider", warm, cold)
}

// TestSnapshotOverflowRunsCold: a spec whose draws overflow a packed
// tape field cannot build a snapshot, so a run under its provider stays
// cold and matches the cold run exactly.
func TestSnapshotOverflowRunsCold(t *testing.T) {
	spec := workload.XalanSpec().Scale(0.02)
	spec.SharedLocks = 1 << 17
	spec.LockOpsPerUnit = 8
	cfg := Config{Threads: 4, Seed: 5}
	if _, err := NewSnapshot(spec, cfg); err == nil {
		t.Fatal("NewSnapshot accepted lock ids beyond the tape's 16-bit field")
	}
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	p := NewSnapshotProvider(spec, cfg)
	warm, err := RunContext(ContextWithSnapshotProvider(context.Background(), p), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attaches != 0 {
		t.Errorf("an unbuildable snapshot attached %d tapes", attaches)
	}
	cold, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "tape-overflow", warm, cold)
}

// TestSnapshotKeyTapeLength pins the tape-length rule: a closed run's
// TotalUnits, an open run's request budget when larger, capped at
// maxTapeUnits. Threads and rate do not enter the key.
func TestSnapshotKeyTapeLength(t *testing.T) {
	spec := workload.ServerSpec().Scale(0.05)
	open := func(requests int) Config {
		return Config{Threads: 8, Seed: 3, Traffic: traffic.Config{
			Process: traffic.ProcessPoisson, RatePerSec: 1000, Requests: requests}}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"closed", Config{Threads: 2, Seed: 3}, spec.TotalUnits},
		{"open-short", open(spec.TotalUnits / 2), spec.TotalUnits},
		{"open-long", open(spec.TotalUnits + 5), spec.TotalUnits + 5},
		{"open-capped", open(1 << 20), maxTapeUnits},
	} {
		k := SnapshotKeyOf(spec, c.cfg)
		if k.Units != c.want || k.Iterations != 1 || k.Seed != 3 {
			t.Errorf("%s: key %d units × %d iterations, seed %d; want %d × 1, seed 3", c.name, k.Units, k.Iterations, k.Seed, c.want)
		}
	}
	a, b := open(100), open(100)
	b.Threads, b.Traffic.RatePerSec = 2, 5000
	if SnapshotKeyOf(spec, a) != SnapshotKeyOf(spec, b) {
		t.Error("thread count or rate changed the snapshot key")
	}
}

// TestSnapshotTableRefCounts: acquiring an equal key returns the held
// provider, a different key a new one, and a provider leaves the table
// with its last release.
func TestSnapshotTableRefCounts(t *testing.T) {
	spec := workload.SunflowSpec().Scale(0.04)
	var tab SnapshotTable
	a := tab.Acquire(spec, Config{Threads: 2, Seed: 11})
	b := tab.Acquire(spec, Config{Threads: 8, Seed: 11})
	c := tab.Acquire(spec, Config{Threads: 2, Seed: 12})
	if a != b || a == c {
		t.Fatalf("providers a=%p b=%p c=%p: want a == b != c", a, b, c)
	}
	if tab.Len() != 2 {
		t.Fatalf("table holds %d providers, want 2", tab.Len())
	}
	tab.Release(a)
	if tab.Len() != 2 {
		t.Fatal("first release of a shared provider removed it")
	}
	tab.Release(b)
	tab.Release(c)
	if tab.Len() != 0 {
		t.Fatalf("table holds %d providers after every release", tab.Len())
	}
	if d := tab.Acquire(spec, Config{Threads: 2, Seed: 11}); d == a {
		t.Error("a released provider was handed out again")
	}
}
