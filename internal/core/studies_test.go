package core

import (
	"context"
	"strings"
	"testing"
)

func studySuite() *Suite {
	return testEngine.Suite(ExperimentConfig{
		ThreadCounts: []int{2, 8},
		Scale:        0.05,
		Seed:         17,
	})
}

func TestStudyHeapFactor(t *testing.T) {
	tb, err := studySuite().StudyHeapFactor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	if !strings.Contains(tb.Title, "heap factor") {
		t.Error("title wrong")
	}
}

func TestStudyGCWorkersMonotone(t *testing.T) {
	tb, err := studySuite().StudyGCWorkers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
	tb, err := studySuite().StudyTenuring(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
	tb, err := studySuite().StudyNUMA(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][0], "NUMA") || !strings.Contains(tb.Rows[1][0], "flat") {
		t.Errorf("machine labels wrong: %v", tb.Rows)
	}
}

func TestStudyCollector(t *testing.T) {
	tb, err := studySuite().StudyCollector(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[1][0], "concurrent") {
		t.Errorf("second row %v, want concurrent mode", tb.Rows[1])
	}
}

func TestStudyPretenuring(t *testing.T) {
	tb, err := studySuite().StudyPretenuring(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if tb.Rows[0][5] != "0" {
		t.Errorf("baseline diverted %s objects, want 0", tb.Rows[0][5])
	}
}

func TestAllStudies(t *testing.T) {
	tables, err := studySuite().AllStudies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Errorf("studies = %d, want 7", len(tables))
	}
}
