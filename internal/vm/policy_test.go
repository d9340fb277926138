package vm

import (
	"reflect"
	"sync"
	"testing"

	"javasim/internal/locks"
	"javasim/internal/sched"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

func serverSpecScaled(t *testing.T, scale float64) workload.Spec {
	t.Helper()
	spec, err := workload.Registry.Get("server")
	if err != nil {
		t.Fatal("server workload missing")
	}
	return spec.Scale(scale)
}

// TestPolicyDeterminism runs every (lock policy, placement) pair twice —
// concurrently, so the race detector watches the policy state — and
// requires deeply equal Results for equal seeds, histogram internals
// included.
func TestPolicyDeterminism(t *testing.T) {
	spec := serverSpecScaled(t, 0.03)
	for _, policy := range locks.Policies.Names() {
		for _, place := range sched.Placements.Names() {
			policy, place := policy, place
			t.Run(policy+"/"+place, func(t *testing.T) {
				t.Parallel()
				cfg := Config{Threads: 8, Seed: 7, LockPolicy: policy}
				cfg.Sched.Placement = place
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
					t.Errorf("same seed + policy %s/%s produced different Results", policy, place)
				}
				if results[0].LockPolicy != policy || results[0].Placement != place {
					t.Errorf("result labeled %s/%s, want %s/%s",
						results[0].LockPolicy, results[0].Placement, policy, place)
				}
			})
		}
	}
}

// TestUnknownPolicyNamesAreErrors checks that bad names fail fast as
// configuration errors, not mid-simulation panics.
func TestUnknownPolicyNamesAreErrors(t *testing.T) {
	spec := serverSpecScaled(t, 0.03)
	if _, err := Run(spec, Config{Threads: 4, LockPolicy: "no-such-policy"}); err == nil {
		t.Error("unknown lock policy accepted")
	}
	cfg := Config{Threads: 4}
	cfg.Sched.Placement = "no-such-placement"
	if _, err := Run(spec, cfg); err == nil {
		t.Error("unknown placement accepted")
	}
}

// lockBoundSpec is a GC-free, barrier-free workload whose only blocking
// is monitor parking, so the spin-then-park charge split is observable in
// isolation: no allocation means no collections and no safepoint waits.
func lockBoundSpec() workload.Spec {
	return workload.Spec{
		Name:           "lockbound",
		TotalUnits:     3000,
		UnitCompute:    2 * sim.Microsecond,
		ComputeCV:      0.3,
		Distribution:   workload.Queue,
		SharedLocks:    1,
		LockOpsPerUnit: 2,
		LockHold:       400 * sim.Nanosecond,
		QueueLockHold:  150 * sim.Nanosecond,
	}
}

// TestSpinBudgetAccounting checks the spin-then-park charge split: the
// busy-wait is mutator CPU, so relative to fifo on the same lock-bound
// workload and seed the mutators burn strictly more CPU while spending
// strictly less time blocked — spin time is charged to compute, park time
// to blocking.
func TestSpinBudgetAccounting(t *testing.T) {
	spec := lockBoundSpec()
	run := func(policy string) *Result {
		res, err := Run(spec, Config{Threads: 24, Seed: 11, LockPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.GCTime != 0 || res.GCStats.Collections() != 0 {
			t.Fatalf("lock-bound workload collected (%v GC) — blocked time is no longer pure lock wait", res.GCTime)
		}
		return res
	}
	fifo := run(locks.PolicyFIFO)
	spin := run(locks.PolicySpinThenPark)

	sum := func(ts []sim.Time) sim.Time {
		var total sim.Time
		for _, v := range ts {
			total += v
		}
		return total
	}
	fifoCPU, spinCPU := sum(fifo.PerThreadCPU), sum(spin.PerThreadCPU)
	if spinCPU <= fifoCPU {
		t.Errorf("spin CPU %v <= fifo CPU %v — spin budgets not charged to mutator compute", spinCPU, fifoCPU)
	}
	fifoBlocked, spinBlocked := sum(fifo.PerThreadBlocked), sum(spin.PerThreadBlocked)
	if spinBlocked >= fifoBlocked {
		t.Errorf("spin blocked %v >= fifo blocked %v — parking should shrink when spins absorb short holds",
			spinBlocked, fifoBlocked)
	}
	// Successful spins never fire the contended-enter probe.
	if spin.LockContentions >= fifo.LockContentions {
		t.Errorf("spin contentions %d >= fifo %d", spin.LockContentions, fifo.LockContentions)
	}
}

// TestRestrictedLowersContentionAtHighThreads is the Dice & Kogan effect
// the plan-level ablation surfaces: at the top of the sweep the
// restricted policy fires far fewer contended-enter probes than fifo,
// while at the cap-sized thread count the two are identical.
func TestRestrictedLowersContentionAtHighThreads(t *testing.T) {
	spec := serverSpecScaled(t, 0.08)
	run := func(policy string, threads int) *Result {
		res, err := Run(spec, Config{Threads: threads, Seed: 42, LockPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// At 4 threads the circulating set never exceeds the default cap of 4:
	// restricted degenerates to fifo exactly.
	fifoLow := run(locks.PolicyFIFO, 4)
	restrLow := run(locks.PolicyRestricted, 4)
	if fifoLow.LockContentions != restrLow.LockContentions {
		t.Errorf("at 4 threads restricted diverged from fifo: %d vs %d contentions",
			restrLow.LockContentions, fifoLow.LockContentions)
	}
	// At 32 threads the admission gate absorbs the herd.
	fifoHi := run(locks.PolicyFIFO, 32)
	restrHi := run(locks.PolicyRestricted, 32)
	if restrHi.LockContentions >= fifoHi.LockContentions {
		t.Errorf("restricted contentions %d >= fifo %d at 32 threads",
			restrHi.LockContentions, fifoHi.LockContentions)
	}
}

// TestBargingCompletesAndStaysFair ensures the competitive discipline —
// wake-all, race, re-park — drives a contended run to completion with
// every unit executed exactly once.
func TestBargingCompletesAndStaysFair(t *testing.T) {
	spec := serverSpecScaled(t, 0.05)
	res, err := Run(spec, Config{Threads: 16, Seed: 3, LockPolicy: locks.PolicyBarging})
	if err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, u := range res.PerThreadUnits {
		units += u
	}
	if int(units) != spec.TotalUnits {
		t.Errorf("units executed = %d, want %d", units, spec.TotalUnits)
	}
	if res.LockPolicy != locks.PolicyBarging {
		t.Errorf("result policy = %q", res.LockPolicy)
	}
}
