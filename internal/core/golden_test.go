package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"javasim/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact file")

// TestGoldenArtifacts locks the rendered output of every artifact at a
// tiny fixed configuration: the paper suite in artifacts.golden and the
// design-choice studies in studies.golden. Any change to workload
// calibration, the cost models, the RNG, or table rendering shows up as
// a diff here — run `go test ./internal/core/ -run TestGolden -update` to
// accept it deliberately.
func TestGoldenArtifacts(t *testing.T) {
	ctx := context.Background()
	pr, err := testEngine.RunPlan(ctx, PaperPlan(ExperimentConfig{
		ThreadCounts: []int{2, 4},
		Scale:        0.02,
		Seed:         12345,
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenTables(t, "artifacts.golden", pr.Reports)

	studies, err := testEngine.RunPlan(ctx, StudyPlan(studyConfig))
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenTables(t, "studies.golden", studies.Reports)
}

// checkGoldenTables compares tables, each rendered as ASCII and followed
// by a blank line, against testdata/name, or rewrites the file under
// -update.
func checkGoldenTables(t *testing.T, name string, tables []*report.Table) {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("golden file missing — run with -update to create it: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		// Locate the first differing line for a readable failure.
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("%s changed at line %d:\n got: %s\nwant: %s\n(run with -update to accept)",
					name, i+1, gotLines[i], wantLines[i])
				return
			}
		}
		t.Errorf("%s length changed: got %d lines, want %d (run with -update to accept)",
			name, len(gotLines), len(wantLines))
	}
}
