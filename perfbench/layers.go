package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"time"

	"javasim/internal/core"
	"javasim/internal/fit"
	"javasim/internal/store"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// perLayerUnits lists every per-layer metric the traced run prints, with
// its unit. BENCHMARK.json's per_layer list mirrors it.
var perLayerUnits = map[string]string{
	"core.validate_ms":          "ms",
	"core.simulations":          "count",
	"core.cache_mem_hits":       "count",
	"core.cache_disk_hits":      "count",
	"core.cache_shared":         "count",
	"core.cache_misses":         "count",
	"core.pool_busy_frac":       "ratio",
	"core.pool_idle_s":          "s",
	"core.render_ms":            "ms",
	"core.accounted_share":      "ratio",
	"vm.run_busy_s":             "s",
	"vm.ns_per_object":          "ns",
	"workload.tape_build_ms":    "ms",
	"workload.tape_units":       "count",
	"workload.units_executed":   "count",
	"workload.tape_use_ratio":   "ratio",
	"locks.acquisitions":        "count",
	"locks.contentions":         "count",
	"locks.contention_ratio":    "ratio",
	"gc.collections":            "count",
	"gc.copied_mb":              "MB",
	"gc.pause_share":            "ratio",
	"heap.objects":              "count",
	"heap.alloc_mb":             "MB",
	"sched.utilization":         "ratio",
	"sched.ready_wait_share":    "ratio",
	"machine.membw_stall_share": "ratio",
	"traffic.offered":           "count",
	"traffic.completed":         "count",
	"traffic.timed_out":         "count",
	"report.write_ms":           "ms",
	"fit.usl_ms":                "ms",
	"store.put_ms_p90":          "ms",
	"store.flush_ms":            "ms",
	"store.writes":              "count",
	"store.bytes_mb":            "MB",
	"store.get_ms_p50":          "ms",
	"store.get_ms_p90":          "ms",
	"store.corrupt":             "count",
	"serve.submit_ms_p50":       "ms",
	"serve.wait_ms_p50":         "ms",
	"serve.artifacts_ms_p50":    "ms",
	"serve.rejected":            "count",
	"serve.accounted_share":     "ratio",
	"latency.plan_s":            "s",
	"latency.job_cold_ms_p50":   "ms",
	"latency.job_cold_ms_p90":   "ms",
	"latency.job_mem_ms_p50":    "ms",
	"latency.job_mem_ms_p90":    "ms",
	"latency.job_disk_ms_p50":   "ms",
	"latency.job_disk_ms_p90":   "ms",
	"trace.overhead_ratio":      "ratio",
	"error_rate":                "ratio",
}

// pooledPercentiles maps per-layer percentile metrics to the pooled
// sample they summarize.
var pooledPercentiles = map[string]struct {
	pool string
	q    float64
}{
	"store.put_ms_p90":       {"store.put_ms", 0.9},
	"store.get_ms_p50":       {"store.get_ms", 0.5},
	"store.get_ms_p90":       {"store.get_ms", 0.9},
	"serve.submit_ms_p50":    {"serve.submit_ms", 0.5},
	"serve.wait_ms_p50":      {"serve.wait_ms", 0.5},
	"serve.artifacts_ms_p50": {"serve.artifacts_ms", 0.5},
}

// perLayer assembles the traced run's metrics and writes its spans.
func (r *run) perLayer(ctx context.Context) (map[string]metric, error) {
	m := make(map[string]metric, len(perLayerUnits)+len(cpuBuckets))
	for name, unit := range perLayerUnits {
		v := median(r.layers[name])
		if pp, ok := pooledPercentiles[name]; ok {
			v = quantile(r.pooled[pp.pool], pp.q)
		}
		m[name] = metric{v, unit}
	}
	m["latency.plan_s"] = metric{r.wallPlanS.value(), "s"}
	for _, tier := range []string{tierCold, tierMem, tierDisk} {
		m["latency.job_"+tier+"_ms_p50"] = metric{quantile(r.wallJobMS[tier], 0.5), "ms"}
		m["latency.job_"+tier+"_ms_p90"] = metric{quantile(r.wallJobMS[tier], 0.9), "ms"}
	}
	m["trace.overhead_ratio"] = metric{r.tracedPlanS.ratioTo(r.planS), "ratio"}
	m["error_rate"] = metric{ratio(float64(r.tally.failed), float64(r.tally.attempted)), "ratio"}
	shares, err := cpuShares(ctx, r.profiles)
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		m["cpu."+b] = metric{shares[b], "ratio"}
	}
	return m, r.writeSpans()
}

// addPoints adds the points of an untraced cold execution of plan
// variant v to the end-to-end samples.
func (r *run) addPoints(v int, pts []pointRec) {
	for _, p := range pts {
		r.pointMS.add(v, ms(p.cpu))
		r.pointCPU += p.cpu.Seconds()
		if p.res != nil {
			r.objects += float64(p.res.ObjectsAllocated)
		}
	}
}

// planLayers records how one traced in-process plan execution spent its
// time: it started at start and took cold, writeDur of it rendering text.
func (r *run) planLayers(pr *core.PlanResult, pts []pointRec, evs []eventRec, start time.Time, cold, writeDur time.Duration) {
	var busy time.Duration
	first, last := start, start
	for i, p := range pts {
		busy += p.dur()
		if i == 0 || p.start.Before(first) {
			first = p.start
		}
		if p.end.After(last) {
			last = p.end
		}
	}
	var lastScenario, planDone time.Time
	for _, ev := range evs {
		switch ev.kind {
		case core.ScenarioDone:
			if ev.at.After(lastScenario) {
				lastScenario = ev.at
			}
		case core.PlanDone:
			planDone = ev.at
		}
	}
	renderDur := planDone.Sub(lastScenario)
	slots := time.Duration(parallelism) * last.Sub(first)
	idle := slots - busy
	validate := median(r.layers["core.validate_ms"]) / 1000
	accounted := validate + (busy+idle).Seconds()/float64(parallelism) + renderDur.Seconds() + writeDur.Seconds()

	r.layer("core.pool_busy_frac", ratio(busy.Seconds(), cold.Seconds()*float64(parallelism)))
	r.layer("core.pool_idle_s", idle.Seconds())
	r.layer("core.render_ms", ms(renderDur))
	r.layer("core.accounted_share", ratio(accounted, cold.Seconds()))
	r.layer("report.write_ms", ms(writeDur))
	r.fitLayers(pr)
}

// simLayers records what the simulator did across pts, the simulations
// of one cold execution. These counts move only when the model changes.
func (r *run) simLayers(pts []pointRec) {
	var (
		busy, cpuTime                    time.Duration
		objects, allocB, units           int64
		acq, cont, collections, copied   int64
		total, gcTime, threadTime, stall float64
		util, cpu, readyWait, blocked    float64
		offered, completed, timedOut     int64
	)
	for _, p := range pts {
		busy += p.dur()
		cpuTime += p.cpu
		res := p.res
		if res == nil {
			continue
		}
		objects += res.ObjectsAllocated
		allocB += res.AllocatedBytes
		units += unitsExecuted(res.PerThreadUnits)
		acq += res.LockAcquisitions
		cont += res.LockContentions
		collections += res.GCStats.MinorCount + res.GCStats.FullCount + res.GCStats.ConcCycles
		copied += res.GCStats.CopiedBytes
		total += float64(res.TotalTime)
		gcTime += float64(res.GCTime)
		threadTime += float64(res.TotalTime) * float64(res.Threads)
		stall += float64(res.MemBWStall)
		util += res.Utilization
		for i := range res.PerThreadCPU {
			cpu += float64(res.PerThreadCPU[i])
			readyWait += float64(res.PerThreadReadyWait[i])
			blocked += float64(res.PerThreadBlocked[i])
		}
		if tr := res.Traffic; tr != nil {
			offered += tr.Offered
			completed += tr.Completed
			timedOut += tr.TimedOut
		}
	}
	r.layer("vm.run_busy_s", busy.Seconds())
	r.layer("vm.ns_per_object", ratio(float64(cpuTime.Nanoseconds()), float64(objects)))
	r.layer("workload.units_executed", float64(units))
	r.layer("locks.acquisitions", float64(acq))
	r.layer("locks.contentions", float64(cont))
	r.layer("locks.contention_ratio", ratio(float64(cont), float64(acq)))
	r.layer("gc.collections", float64(collections))
	r.layer("gc.copied_mb", float64(copied)/mib)
	r.layer("gc.pause_share", ratio(gcTime, total))
	r.layer("heap.objects", float64(objects))
	r.layer("heap.alloc_mb", float64(allocB)/mib)
	r.layer("sched.utilization", ratio(util, float64(len(pts))))
	r.layer("sched.ready_wait_share", ratio(readyWait, cpu+readyWait+blocked))
	r.layer("machine.membw_stall_share", ratio(stall, threadTime))
	r.layer("traffic.offered", float64(offered))
	r.layer("traffic.completed", float64(completed))
	r.layer("traffic.timed_out", float64(timedOut))
}

// sweepKey identifies the points one warm-start snapshot serves: the
// same spec and seed (see vm.Snapshot.Matches).
type sweepKey struct {
	spec workload.Spec
	seed uint64
}

// tapeLayers times vm.NewSnapshot once per sweep among pts and compares
// the units its tapes hold with the units the sweep's runs executed.
func (r *run) tapeLayers(pts []pointRec) {
	type sweep struct {
		cfg     vm.Config
		maxUnit int64 // most units one point executed per iteration
	}
	sweeps := map[sweepKey]*sweep{}
	var order []sweepKey
	for _, p := range pts {
		if p.res == nil {
			continue
		}
		k := sweepKey{p.spec, p.cfg.Seed}
		s, ok := sweeps[k]
		if !ok {
			s = &sweep{cfg: p.cfg}
			sweeps[k] = s
			order = append(order, k)
		}
		perIter := unitsExecuted(p.res.PerThreadUnits) / int64(p.cfg.Canonical().Iterations)
		s.maxUnit = max(s.maxUnit, perIter)
	}
	var build time.Duration
	var tape, useful int64
	for _, k := range order {
		s := sweeps[k]
		start := time.Now()
		snap, err := vm.NewSnapshot(k.spec, s.cfg)
		build += time.Since(start)
		if err != nil {
			r.tally.record("tape build", err.Error())
			continue
		}
		units, iters := int64(snap.Units()), int64(snap.Iterations())
		tape += units * iters
		useful += min(s.maxUnit, units) * iters
	}
	r.layer("workload.tape_build_ms", ms(build))
	r.layer("workload.tape_units", float64(tape))
	r.layer("workload.tape_use_ratio", ratio(float64(useful), float64(tape)))
}

// fitLayers times the USL/Amdahl fit of every closed thread sweep.
func (r *run) fitLayers(pr *core.PlanResult) {
	var d time.Duration
	for _, sc := range pr.Scenarios {
		for _, sw := range sc.Sweeps {
			if sw.Open() || len(sw.Points) < fit.MinPoints {
				continue
			}
			threads := make([]int, len(sw.Points))
			for i, p := range sw.Points {
				threads[i] = p.Threads
			}
			pts, err := fit.Series(threads, sw.Throughputs())
			if err != nil {
				continue
			}
			start := time.Now()
			fit.Both(pts)
			d += time.Since(start)
		}
	}
	r.layer("fit.usl_ms", ms(d))
}

// storeLayers records a flushed store's size.
func (r *run) storeLayers(st *store.Store) {
	var bytes int64
	filepath.WalkDir(st.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
			}
		}
		return nil
	})
	r.layer("store.writes", float64(st.Stats().Writes))
	r.layer("store.bytes_mb", float64(bytes)/mib)
}
