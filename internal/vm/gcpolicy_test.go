package vm

import (
	"reflect"
	"sync"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/workload"
)

func xalanSpecScaled(t *testing.T, scale float64) workload.Spec {
	t.Helper()
	spec, err := workload.Registry.Get("xalan")
	if err != nil {
		t.Fatal("xalan workload missing")
	}
	return spec.Scale(scale)
}

// TestGCPolicyDeterminism runs every GC policy twice — concurrently, so
// the race detector watches the registry and any policy state — and
// requires deeply equal Results for equal seeds (histogram internals
// included), correctly labeled.
func TestGCPolicyDeterminism(t *testing.T) {
	spec := xalanSpecScaled(t, 0.03)
	for _, policy := range gc.Policies.Names() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Threads: 8, Seed: 7, HeapFactor: 1.6, GCPolicy: policy}
			results := make([]*Result, 2)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := Run(spec, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("same seed + gc policy %s produced different Results", policy)
			}
			if results[0].GCPolicy != policy {
				t.Errorf("result labeled %q, want %q", results[0].GCPolicy, policy)
			}
		})
	}
}

// TestGCPolicyDefaultIsByteIdentical pins the default's compatibility
// contract: an explicit stw-serial selection and the zero-value config
// produce the same Result, every field deeply equal.
func TestGCPolicyDefaultIsByteIdentical(t *testing.T) {
	spec := xalanSpecScaled(t, 0.03)
	implicit, err := Run(spec, Config{Threads: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(spec, Config{Threads: 8, Seed: 42, GCPolicy: gc.PolicyStwSerial})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Error("explicit stw-serial diverged from the default configuration")
	}
	if implicit.GCPolicy != gc.PolicyStwSerial {
		t.Errorf("default run labeled %q, want stw-serial", implicit.GCPolicy)
	}
}

// TestGCPolicyConfigErrors checks that bad GC-policy configurations fail
// fast as configuration errors, not mid-simulation panics.
func TestGCPolicyConfigErrors(t *testing.T) {
	spec := xalanSpecScaled(t, 0.03)
	if _, err := Run(spec, Config{Threads: 4, GCPolicy: "no-such-gc"}); err == nil {
		t.Error("unknown gc policy accepted")
	}
}

// TestCompartmentPolicyLaysOutNUMAHeap checks the compartment policy's
// observable shape on the paper's machine: threads group per socket, the
// heap gets one compartment per spanned socket, and pauses shorten while
// the collection count rises (the §IV suggestion-2 signature), with the
// NUMA copy discount visible in the per-phase breakdown.
func TestCompartmentPolicyLaysOutNUMAHeap(t *testing.T) {
	spec := xalanSpecScaled(t, 0.1)
	base, err := Run(spec, Config{Threads: 24, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	comp, pauses, err := tracedPauses(spec, Config{Threads: 24, Seed: 42, GCPolicy: gc.PolicyCompartment})
	if err != nil {
		t.Fatal(err)
	}
	if comp.GCStats.Collections() <= base.GCStats.Collections() {
		t.Errorf("compartment collections %d <= baseline %d — eden was not sliced",
			comp.GCStats.Collections(), base.GCStats.Collections())
	}
	if comp.GCStats.MaxPause >= base.GCStats.MaxPause {
		t.Errorf("compartment max pause %v >= baseline %v — no pause isolation", comp.GCStats.MaxPause, base.GCStats.MaxPause)
	}
	// 24 threads span 2 sockets: minor pauses must name compartments 0
	// and 1, nothing else.
	seen := map[int]bool{}
	for _, p := range pauses {
		if p.Kind == gc.Minor {
			seen[p.Compartment] = true
		}
	}
	if !seen[0] || !seen[1] || len(seen) != 2 {
		t.Errorf("minor collections hit compartments %v, want exactly {0, 1}", seen)
	}
}

// TestResultRecordsGCPhases checks the per-phase GC CPU accounting: the
// phase sums reconcile exactly with the recorded pause time.
func TestResultRecordsGCPhases(t *testing.T) {
	spec := xalanSpecScaled(t, 0.05)
	res, err := Run(spec, Config{Threads: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCPhases.Total() != res.GCStats.TotalTime() {
		t.Errorf("GCPhases = %+v sum to %v, pause time %v", res.GCPhases, res.GCPhases.Total(), res.GCStats.TotalTime())
	}
	if res.GCPhases.Total() == 0 {
		t.Error("run collected nothing — phase accounting untested")
	}
}
