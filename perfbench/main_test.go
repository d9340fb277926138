package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, f faults) *result {
	t.Helper()
	res, digest, err := execute(context.Background(), options{
		workload: workload, seed: 1, trace: trace, tiny: true,
		root: "..", out: t.TempDir(), faults: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(digest) != 64 {
		t.Errorf("sim digest %q is not a sha256", digest)
	}
	return res
}

// TestTinyRunsReportEveryMetric runs every workload at tiny size, untraced
// and traced, and checks that the result names exactly BENCHMARK.json's
// metrics with their units and that no operation failed.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res := tinyRun(t, w.Name, trace, faults{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d: %v", w.Name, trace, len(got), len(want), got)
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			if trace && res.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s: error_rate %v", w.Name, res.Metrics["error_rate"].Value)
			}
		}
	}
}

// TestCorruptionIsCounted proves the checks catch a changed artifact and
// a damaged store entry on every workload.
func TestCorruptionIsCounted(t *testing.T) {
	for name := range workloads {
		for _, f := range []faults{{artifact: true}, {storeEntry: true}} {
			res := tinyRun(t, name, false, f)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s with %+v: correct=%v, %d failures; want the corruption counted", name, f, res.Correct, res.Failed)
			}
		}
	}
}
