package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"javasim/internal/report"
)

// studyTable runs one design-choice study through the shared test engine.
func studyTable(t *testing.T, name string) *report.Table {
	t.Helper()
	tables, err := testEngine.Studies(context.Background(), studyConfig, name)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

var studyConfig = ExperimentConfig{
	ThreadCounts: []int{2, 8},
	Scale:        0.05,
	Seed:         17,
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
	// The first column of the first and last rows bracket the sweep; GC
	// time with 1 worker must exceed GC time with 33 (parallelism helps).
	if tb.Rows[0][1] == tb.Rows[len(tb.Rows)-1][1] {
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
	if tb.Rows[0][2] != "0.00" {
		t.Errorf("threshold-1 copied %s MB, want 0.00 (immediate promotion)", tb.Rows[0][2])
	}
}

func TestStudyNUMA(t *testing.T) {
	tb := studyTable(t, "StudyNUMA")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][0], "NUMA") || !strings.Contains(tb.Rows[1][0], "flat") {
		t.Errorf("machine labels wrong: %v", tb.Rows)
	}
}

func TestStudyCollector(t *testing.T) {
	tb := studyTable(t, "StudyCollector")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[1][0], "concurrent") {
		t.Errorf("second row %v, want concurrent mode", tb.Rows[1])
	}
}

func TestStudyPretenuring(t *testing.T) {
	tb := studyTable(t, "StudyPretenuring")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if tb.Rows[0][5] != "0" {
		t.Errorf("baseline diverted %s objects, want 0", tb.Rows[0][5])
	}
}

func TestAllStudies(t *testing.T) {
	var artifacts []string
	ctx := ContextWithObserver(context.Background(), ObserverFunc(func(ev Event) {
		if ev.Kind == ArtifactRendered {
			artifacts = append(artifacts, ev.Artifact)
		}
	}))
	tables, err := testEngine.Studies(ctx, studyConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Errorf("studies = %d, want 7", len(tables))
	}
	want := []string{"StudyHeapFactor", "StudyGCWorkers", "StudyTenuring", "StudyNUMA",
		"StudyCollector", "StudyPretenuring", "StudyReplication"}
	if !slices.Equal(artifacts, want) {
		t.Errorf("artifact events = %v, want %v", artifacts, want)
	}
	if _, err := testEngine.Studies(ctx, studyConfig, "StudyNope"); err == nil ||
		!strings.Contains(err.Error(), "StudyHeapFactor") {
		t.Errorf("unknown study: err = %v, want one listing the known studies", err)
	}
}
