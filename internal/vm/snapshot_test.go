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

// runSnapshotPair executes (spec, cfg) warm — RunContext with snap on
// the context — and cold, asserting the warm run actually attached a
// tape (a differential test that never replays proves nothing).
func runSnapshotPair(t *testing.T, spec workload.Spec, cfg Config, snap *Snapshot) (*Result, *Result) {
	t.Helper()
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	warm, err := RunContext(ContextWithSnapshot(context.Background(), snap), spec, cfg)
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
		snap, err := NewSnapshot(spec, Config{Seed: 11})
		if err != nil {
			t.Fatalf("%s: NewSnapshot: %v", spec.Name, err)
		}
		for _, threads := range []int{4, 16} {
			warm, cold := runSnapshotPair(t, spec, Config{Threads: threads, Seed: 11}, snap)
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
			snap, err := NewSnapshot(c.spec, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.Iterations > 1 && snap.Iterations() != c.cfg.Iterations {
				t.Fatalf("snapshot holds %d tapes, want %d", snap.Iterations(), c.cfg.Iterations)
			}
			warm, cold := runSnapshotPair(t, c.spec, c.cfg, snap)
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
	tape, err := workload.BuildTape(spec, cfg.withDefaults().Seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{spec: spec, seed: cfg.withDefaults().Seed, tapes: []*workload.Tape{tape}}
	warm, cold := runSnapshotPair(t, spec, cfg, snap)
	diffResults(t, "short-tape", warm, cold)
}

// TestSnapshotSeedMismatchStaysCold pins the Matches self-guard: a
// snapshot built for another seed must be skipped, not misapplied —
// sweeps run repeats under derived seeds through the same context.
func TestSnapshotSeedMismatchStaysCold(t *testing.T) {
	spec := workload.SunflowSpec().Scale(0.04)
	snap, err := NewSnapshot(spec, Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	attaches := 0
	snapshotObserver = func() { attaches++ }
	defer func() { snapshotObserver = nil }()

	cfg := Config{Threads: 4, Seed: 11}
	warm, err := RunContext(ContextWithSnapshot(context.Background(), snap), spec, cfg)
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
