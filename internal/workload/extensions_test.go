package workload

import "testing"

func TestServerSpecValid(t *testing.T) {
	s := ServerSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Phases != 0 {
		t.Error("server workload should be barrier-free (steady state)")
	}
	if s.Distribution != Queue {
		t.Error("server workload should draw from a shared request queue")
	}
}

func TestExtensionsNotInAll(t *testing.T) {
	// The paper's experiment set must stay exactly the six benchmarks:
	// no registered extension may leak into PaperSet.
	for _, s := range PaperSet() {
		for _, e := range registered(t) {
			if !IsPaperBenchmark(e.Name) && s.Name == e.Name {
				t.Errorf("extension %s leaked into PaperSet()", e.Name)
			}
		}
	}
}

func TestByNameFindsExtensions(t *testing.T) {
	s, err := Registry.Get("server")
	if err != nil || s.Name != "server" {
		t.Error("Get(server) failed")
	}
}

func TestServerDrainsAndDistributes(t *testing.T) {
	spec := ServerSpec().Scale(0.01)
	r, err := NewRun(spec, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		progress := false
		for tid := 0; tid < 8; tid++ {
			if _, ok := r.Take(tid); ok {
				total++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if total != spec.TotalUnits {
		t.Errorf("drained %d, want %d", total, spec.TotalUnits)
	}
}
