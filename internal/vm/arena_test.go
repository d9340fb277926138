package vm

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/objmodel"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// auditEveryRun checks the collector's slot invariant at the end of
// every run until the test ends.
func auditEveryRun(t *testing.T) {
	t.Helper()
	var mu sync.Mutex
	registryObserver = func(_ *objmodel.Registry, c *gc.Collector) {
		mu.Lock()
		defer mu.Unlock()
		if err := c.AuditSlots(); err != nil {
			t.Errorf("after a run: %v", err)
		}
	}
	t.Cleanup(func() { registryObserver = nil })
}

// TestArenaReuseIsInvisible: a run on an arena an earlier, larger run
// left dirty returns exactly what it returns on a fresh arena. The
// dirtying run has more threads and more compartments than any checked
// run and pretenures into the old generation, so every buffer the arena
// lends (registry pages and free list, young and old lists, death
// rings) holds stale entries a missed reset would expose.
func TestArenaReuseIsInvisible(t *testing.T) {
	auditEveryRun(t)
	type run struct {
		name string
		spec workload.Spec
		cfg  Config
	}
	var runs []run
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.05)
		for _, threads := range []int{2, 8} {
			runs = append(runs, run{fmt.Sprintf("%s/%d", spec.Name, threads), spec, Config{Threads: threads, Seed: 5}})
		}
	}
	xalan := workload.XalanSpec().Scale(0.05)
	server := workload.ServerSpec().Scale(0.05)
	runs = append(runs,
		run{"compartment/4", xalan, Config{Threads: 8, Seed: 5, GCPolicy: gc.PolicyCompartment, Compartments: 4}},
		run{"concurrent", cmsSpec().Scale(0.2), Config{Threads: 8, Seed: 5, HeapFactor: 2, GCPolicy: gc.PolicyConcurrent}},
		run{"stw-parallel", xalan, Config{Threads: 8, Seed: 5, GCPolicy: gc.PolicyStwParallel}},
		run{"pretenuring", workload.XalanSpec().Scale(0.2), Config{Threads: 16, Seed: 5, HeapFactor: 2, Pretenuring: true}},
		run{"iterations", xalan, Config{Threads: 4, Seed: 5, Iterations: 2}},
		run{"open", server, Config{Threads: 4, Seed: 5, Traffic: traffic.Config{
			Process: traffic.ProcessPoisson, RatePerSec: 50000, Requests: server.TotalUnits,
		}}},
	)
	dirty := run{"dirty", workload.XalanSpec().Scale(0.2), Config{Threads: 24, Seed: 9, HeapFactor: 2, Compartments: 6, Pretenuring: true}}

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			fresh, err := Run(r.spec, r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var a Arena
			ctx := ContextWithArena(context.Background(), &a)
			if _, err := RunContext(ctx, dirty.spec, dirty.cfg); err != nil {
				t.Fatalf("dirtying run: %v", err)
			}
			// The self-check: the arena really is dirty, so skipping any
			// reset would hand this run stale state.
			if a.reg.Slots() == 0 || a.reg.LiveCount() != 0 || len(a.young) != 6 || len(a.old) == 0 || len(a.rings) != 24 {
				t.Fatalf("dirtying run left %d slots, %d live, %d young lists, %d old, %d rings; want a dirty arena",
					a.reg.Slots(), a.reg.LiveCount(), len(a.young), len(a.old), len(a.rings))
			}
			for i, y := range a.young {
				if len(y) == 0 {
					t.Fatalf("dirtying run left young list %d empty", i)
				}
			}
			freed := 0
			for id := range a.reg.Slots() {
				if a.reg.Freed(objmodel.ID(id)) {
					freed++
				}
			}
			if freed == 0 {
				t.Fatal("dirtying run left an empty free list")
			}
			reused, err := RunContext(ctx, r.spec, r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("result on a reused arena differs from a fresh arena's: total time %v, %d collections; fresh %v, %d collections",
					reused.TotalTime, reused.GCStats.Collections(), fresh.TotalTime, fresh.GCStats.Collections())
			}
			if a.busy.Load() {
				t.Error("run did not hand its arena back")
			}
			if got, want := len(a.rings), r.cfg.Threads; got != want {
				t.Errorf("arena keeps %d death rings after a %d-thread run", got, want)
			}
		})
	}
}

// TestArenaHeldTakesFresh: runs sharing a context concurrently do not
// share its arena; the one that finds it held runs on a fresh arena and
// both return what a fresh arena gives.
func TestArenaHeldTakesFresh(t *testing.T) {
	auditEveryRun(t)
	spec := workload.XalanSpec().Scale(0.05)
	cfg := Config{Threads: 4, Seed: 3}
	want, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithArena(context.Background(), new(Arena))
	results := make([]*Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunContext(ctx, spec, cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("concurrent run %d on a shared context differs from a fresh run", i)
		}
	}
}
