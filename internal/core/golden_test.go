package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact file")

// TestGoldenArtifacts locks the rendered output of every artifact at a
// tiny fixed configuration. Any change to workload calibration, the cost
// models, the RNG, or table rendering shows up as a diff here — run
// `go test ./internal/core/ -run TestGolden -update` to accept it
// deliberately.
func TestGoldenArtifacts(t *testing.T) {
	pr, err := testEngine.RunPlan(context.Background(), PaperPlan(ExperimentConfig{
		ThreadCounts: []int{2, 4},
		Scale:        0.02,
		Seed:         12345,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range pr.Reports {
		if err := tb.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "artifacts.golden")
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
		t.Fatalf("golden file missing — run with -update to create it: %v", err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first differing line for a readable failure.
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("artifact output changed at line %d:\n got: %s\nwant: %s\n(run with -update to accept)",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("artifact output length changed: got %d lines, want %d (run with -update to accept)",
			len(gotLines), len(wantLines))
	}
}
