package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"javasim/internal/lockprof"
	"javasim/internal/report"
	"javasim/internal/store"
	"javasim/internal/trace"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// planText renders every table of pr as ASCII, in PlanResult order.
func planText(t testing.TB, pr *PlanResult) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tb := range pr.Tables() {
		if err := tb.WriteASCII(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestArtifactMemoWarmRerun re-runs a plan on a warm engine: every table
// comes back from the artifact memo — the same pointers, so the same
// bytes — and every artifact still reports ArtifactRendered.
func TestArtifactMemoWarmRerun(t *testing.T) {
	obs := newCountingObserver()
	eng := NewEngine(WithParallelism(2), WithObserver(obs))
	ctx := context.Background()
	first, err := eng.RunPlan(ctx, testPlan())
	if err != nil {
		t.Fatal(err)
	}
	rendered := obs.count(ArtifactRendered)
	misses := eng.CacheStats().Misses
	second, err := eng.RunPlan(ctx, testPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Misses; got != misses {
		t.Errorf("warm re-run simulated %d points", got-misses)
	}
	if !bytes.Equal(planText(t, first), planText(t, second)) {
		t.Error("warm re-run rendered different text")
	}
	a, b := first.Tables(), second.Tables()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("tables: %d then %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("table %d (%q) re-rendered on a warm re-run", i, a[i].Title)
		}
	}
	if got := obs.count(ArtifactRendered); got != 2*rendered {
		t.Errorf("ArtifactRendered events = %d after two runs, want %d", got, 2*rendered)
	}
}

// TestArtifactMemoKeysTitleAndNote changes only a report's Title, then
// only its Note: each is a new artifact and renders afresh, while the
// untouched reports stay memoized.
func TestArtifactMemoKeysTitleAndNote(t *testing.T) {
	eng := NewEngine(WithParallelism(2))
	ctx := context.Background()
	base, err := eng.RunPlan(ctx, testPlan())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		warp func(*ReportSpec)
		want func(*report.Table) bool
	}{
		{"title", func(rs *ReportSpec) { rs.Title = "retitled" }, func(t *report.Table) bool { return t.Title == "retitled" }},
		{"note", func(rs *ReportSpec) { rs.Note = "renoted" }, func(t *report.Table) bool { return t.Note == "renoted" }},
	} {
		p := testPlan()
		tc.warp(&p.Reports[1])
		pr, err := eng.RunPlan(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.Reports[1]; got == base.Reports[1] || !tc.want(got) {
			t.Errorf("%s: changed report served from the memo: %q (note %q)", tc.name, got.Title, got.Note)
		}
		for _, i := range []int{0, 2} {
			if pr.Reports[i] != base.Reports[i] {
				t.Errorf("%s: unchanged report %d re-rendered", tc.name, i)
			}
		}
	}
}

// TestArtifactMemoKeysLabels renders the same output from two scenarios,
// one plan after the other, that differ only in name, so their sweeps
// are identical: each table carries its own scenario's label.
func TestArtifactMemoKeysLabels(t *testing.T) {
	eng := NewEngine(WithParallelism(2))
	for _, name := range []string{"a", "b"} {
		p := &Plan{Seed: 5, Scale: 0.02, ThreadCounts: []int{2, 4}, Scenarios: []Scenario{
			{Name: name, Workload: workload.NameRef("xalan"), Outputs: []Output{OutputSweep}},
		}}
		pr, err := eng.RunPlan(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if title := pr.Scenarios[0].Tables[0].Title; !strings.HasSuffix(title, "— "+name) {
			t.Errorf("scenario %s rendered %q", name, title)
		}
	}
}

// TestArtifactMemoSkipsSinkSweeps renders from sweeps whose points
// carried a trace sink or a lock profiler: those points have no
// fingerprint, so their tables are rendered fresh every time and never
// stored. The same sweep without a sink is memoized.
func TestArtifactMemoSkipsSinkSweeps(t *testing.T) {
	eng := NewEngine(WithParallelism(2))
	ctx := context.Background()
	spec := testSpec(t, "xalan", 0.02)
	sweep := func(base vm.Config) *Sweep {
		sw, err := eng.Sweep(ctx, spec, SweepConfig{ThreadCounts: []int{2, 4}, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	renderTwice := func(sw *Sweep) (*report.Table, *report.Table) {
		var tables [2]*report.Table
		for i := range tables {
			in := &inputs{spec: &ReportSpec{}, labels: []string{"x"}, sweeps: []*Sweep{sw}, repeats: []*Sweep{sw}}
			tb, err := eng.render(OutputSweep, in)
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = tb
		}
		return tables[0], tables[1]
	}
	for name, base := range map[string]vm.Config{
		"trace sink":    {Seed: 3, TraceSink: &trace.MemorySink{}},
		"lock profiler": {Seed: 3, LockProfiler: lockprof.New()},
	} {
		if a, b := renderTwice(sweep(base)); a == b {
			t.Errorf("%s: table served from the memo", name)
		}
		if n := eng.artifacts.len(); n != 0 {
			t.Errorf("%s: memo holds %d tables", name, n)
		}
	}
	if a, b := renderTwice(sweep(vm.Config{Seed: 3})); a != b {
		t.Error("sink-free sweep not memoized")
	}
}

// TestArtifactMemoDisabledWithCache re-runs a plan on an engine built
// WithCache(0): the artifact memo is off with the result cache, so every
// run renders new tables with the same text.
func TestArtifactMemoDisabledWithCache(t *testing.T) {
	eng := NewEngine(WithParallelism(2), WithCache(0))
	ctx := context.Background()
	first, err := eng.RunPlan(ctx, testPlan())
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.RunPlan(ctx, testPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planText(t, first), planText(t, second)) {
		t.Error("uncached re-run rendered different text")
	}
	a, b := first.Tables(), second.Tables()
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("table %d (%q) shared with WithCache(0)", i, a[i].Title)
		}
	}
	if n := eng.artifacts.len(); n != 0 {
		t.Errorf("disabled memo holds %d tables", n)
	}
}

// TestArtifactMemoRenderErrorNotStored renders an output whose renderer
// fails on its first two calls: each failing run returns the renderer's
// error, the next run renders again, and only the first success is
// memoized.
func TestArtifactMemoRenderErrorNotStored(t *testing.T) {
	const flaky Output = "test-flaky"
	calls := 0
	kinds[flaky] = kind{axis: threadAxis, render: func(in *inputs) (*report.Table, error) {
		calls++
		if calls <= 2 {
			return nil, fmt.Errorf("flaky render %d", calls)
		}
		return renderSweepTable(in)
	}}
	t.Cleanup(func() { delete(kinds, flaky) })
	eng := NewEngine(WithParallelism(2))
	p := &Plan{Seed: 5, Scale: 0.02, ThreadCounts: []int{2, 4}, Scenarios: []Scenario{
		{Name: "x", Workload: workload.NameRef("xalan"), Outputs: []Output{flaky}},
	}}
	ctx := context.Background()
	for run := 1; run <= 2; run++ {
		want := fmt.Sprintf("flaky render %d", run)
		if _, err := eng.RunPlan(ctx, p); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: err = %v, want %q", run, err, want)
		}
	}
	first, err := eng.RunPlan(ctx, p)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	second, err := eng.RunPlan(ctx, p)
	if err != nil {
		t.Fatalf("run 4: %v", err)
	}
	if calls != 3 {
		t.Errorf("renderer called %d times over four runs, want 3", calls)
	}
	if first.Scenarios[0].Tables[0] != second.Scenarios[0].Tables[0] {
		t.Error("successful render not memoized")
	}
}

// BenchmarkPlanMemoryTier re-runs PaperPlan on a warm engine and writes
// its tables as ASCII: the memory tier, where every point is a cache hit
// and every artifact a memo hit.
func BenchmarkPlanMemoryTier(b *testing.B) {
	eng := NewEngine()
	ctx := context.Background()
	p := PaperPlan(ExperimentConfig{Scale: 0.05, Seed: 3})
	if _, err := eng.RunPlan(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := eng.RunPlan(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, tb := range pr.Tables() {
			if err := tb.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanDiskTier re-runs PaperPlan from a filled disk store and
// writes every table as text, as BenchmarkPlanMemoryTier does from
// memory: each iteration is a fresh engine, so every point is a store
// read and every table a fresh render. Any miss is fatal.
func BenchmarkPlanDiskTier(b *testing.B) {
	dir := b.TempDir()
	ctx := context.Background()
	p := PaperPlan(ExperimentConfig{Scale: 0.05, Seed: 3})
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := NewEngine(WithDiskStore(st)).RunPlan(ctx, p); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	st, err = store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithDiskStore(st))
		pr, err := eng.RunPlan(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, tb := range pr.Tables() {
			if err := tb.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		if cs := eng.CacheStats(); cs.Misses != 0 || cs.DiskHits == 0 {
			b.Fatalf("re-run from the store: %+v, want disk hits only", cs)
		}
	}
}
