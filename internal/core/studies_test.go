package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"javasim/internal/report"
)

var studyConfig = ExperimentConfig{
	ThreadCounts: []int{2, 8},
	Scale:        0.05,
	Seed:         17,
}

// studyTable runs one design-choice study, selected from StudyPlan,
// through the shared test engine.
func studyTable(t *testing.T, name string) *report.Table {
	t.Helper()
	p, err := StudyPlan(studyConfig).Select(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := testEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Reports[0]
}

// cell returns row i's value in the column headed header.
func cell(t *testing.T, tb *report.Table, i int, header string) string {
	t.Helper()
	j := slices.Index(tb.Headers, header)
	if j < 0 {
		t.Fatalf("%q: no %q column in %v", tb.Title, header, tb.Headers)
	}
	return tb.Rows[i][j]
}

func TestStudyHeapFactor(t *testing.T) {
	tb := studyTable(t, "StudyHeapFactor")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	if !strings.Contains(tb.Title, "heap factor") {
		t.Error("title wrong")
	}
}

func TestStudyGCWorkersMonotone(t *testing.T) {
	tb := studyTable(t, "StudyGCWorkers")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	// The first and last rows bracket the sweep; GC time with 1 worker
	// must differ from GC time with 33 (parallelism helps).
	if cell(t, tb, 0, "gc") == cell(t, tb, len(tb.Rows)-1, "gc") {
		t.Error("worker count had no effect on GC time")
	}
}

func TestStudyTenuring(t *testing.T) {
	tb := studyTable(t, "StudyTenuring")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// Threshold 1 promotes everything that survives once: zero survivor
	// copying.
	if got := cell(t, tb, 0, "copied-MB"); got != "0.00" {
		t.Errorf("threshold-1 copied %s MB, want 0.00 (immediate promotion)", got)
	}
}

func TestStudyNUMA(t *testing.T) {
	tb := studyTable(t, "StudyNUMA")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if got := []string{cell(t, tb, 0, "scenario"), cell(t, tb, 1, "scenario")}; !slices.Equal(got,
		[]string{"numa", "flat [machine=opteron-6168-flat]"}) {
		t.Errorf("machine labels wrong: %v", got)
	}
}

func TestStudyCollector(t *testing.T) {
	tb := studyTable(t, "StudyCollector")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if got := cell(t, tb, 1, "scenario"); !strings.Contains(got, "gc=concurrent") {
		t.Errorf("second row %q, want the concurrent collector", got)
	}
	if got := cell(t, tb, 1, "conc-cycles"); got == "0" {
		t.Error("concurrent row ran no concurrent cycle")
	}
}

func TestStudyPretenuring(t *testing.T) {
	tb := studyTable(t, "StudyPretenuring")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if got := cell(t, tb, 0, "pretenured"); got != "0" {
		t.Errorf("baseline diverted %s objects, want 0", got)
	}
}

func TestAllStudies(t *testing.T) {
	var artifacts []string
	ctx := ContextWithObserver(context.Background(), ObserverFunc(func(ev Event) {
		if ev.Kind == ArtifactRendered {
			artifacts = append(artifacts, ev.Artifact)
		}
	}))
	pr, err := testEngine.RunPlan(ctx, StudyPlan(studyConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Reports) != 7 {
		t.Errorf("studies = %d, want 7", len(pr.Reports))
	}
	want := []string{"StudyHeapFactor", "StudyGCWorkers", "StudyTenuring", "StudyNUMA",
		"StudyCollector", "StudyPretenuring", "StudyReplication"}
	if !slices.Equal(artifacts, want) {
		t.Errorf("artifact events = %v, want %v", artifacts, want)
	}
	if _, err := StudyPlan(studyConfig).Select("StudyNope"); err == nil ||
		!strings.Contains(err.Error(), "StudyHeapFactor") {
		t.Errorf("unknown study: err = %v, want one listing the known studies", err)
	}
}
