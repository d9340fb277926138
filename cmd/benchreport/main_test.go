package main

import (
	"reflect"
	"testing"
)

// TestGateAxes: each ceiling gates only its own axis, a negative ceiling
// disables it, and a zero baseline pins the axis at zero.
func TestGateAxes(t *testing.T) {
	rep := Report{
		Baseline: map[string]Measurement{
			"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
			"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 0},
		},
		Benchmarks: map[string]Measurement{
			"BenchmarkA": {NsPerOp: 105, AllocsPerOp: 10, BytesPerOp: 1200},
			"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 64},
			"BenchmarkC": {NsPerOp: 1e9, AllocsPerOp: 1e9, BytesPerOp: 1e9},
		},
	}
	want := []string{
		"BenchmarkA B/op 1000 -> 1200 (+20.0%, ceiling 10%)",
		"BenchmarkB B/op 0 -> 64 (was pinned at zero)",
	}
	if got := gate(rep, 10, 10, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("gate with 10%% ceilings:\n got %q\nwant %q", got, want)
	}
	if got := gate(rep, 10, 10, -1); len(got) != 0 {
		t.Errorf("gate with the bytes axis disabled: %q, want none", got)
	}
	want = []string{
		"BenchmarkA ns/op 100 -> 105 (+5.0%, ceiling 1%)",
		"BenchmarkB B/op 0 -> 64 (was pinned at zero)",
	}
	if got := gate(rep, 1, 10, 25); !reflect.DeepEqual(got, want) {
		t.Errorf("gate with a 1%% ns ceiling:\n got %q\nwant %q", got, want)
	}
}
