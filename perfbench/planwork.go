package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"javasim/internal/core"
	"javasim/internal/store"
)

// tierReps is how many memory-hit and disk-hit re-runs follow each cold
// plan.
const tierReps = 8

// planVariants is how many plans, each under its own seed derived from
// the run's seed, a run rotates through, so that its medians do not hinge
// on one seed's draws.
const planVariants = 10

// planWorkload runs plans in process: each round executes one cold on a
// fresh engine, then re-runs it on the same engine (memory hits) and on
// fresh engines over a disk store holding its results (disk hits).
type planWorkload struct {
	build func(seed uint64, variant int, tiny bool) (*core.Plan, error)
	probe probe
	plans []*core.Plan
	eng   *core.Engine // built by setup, used by round 0
	refs  [][]byte     // each plan's artifacts from its first round
	st    *store.Store // disk tier, holding the results of every plan run so far
}

// setup generates the plans, round-trips each through the plan-file
// loader (which validates it) and builds the engine.
func (w *planWorkload) setup(ctx context.Context, r *run) error {
	w.plans = make([]*core.Plan, planVariants)
	w.refs = make([][]byte, planVariants)
	var validate time.Duration
	for v := range w.plans {
		p, err := w.build(r.opts.seed, v, r.opts.tiny)
		if err != nil {
			return err
		}
		var body bytes.Buffer
		if err := p.WriteJSON(&body); err != nil {
			return err
		}
		start := time.Now()
		if w.plans[v], err = decodePlan(body.Bytes()); err != nil {
			return err
		}
		validate += time.Since(start)
	}
	r.layer("core.validate_ms", ms(validate)/planVariants)
	w.eng = core.NewEngine(w.probe.engineOptions(false)...)
	return nil
}

func buildPaperPlan(seed uint64, variant int, tiny bool) (*core.Plan, error) {
	return paperPlan(seed, variant, tiny), nil
}

func (w *planWorkload) round(ctx context.Context, r *run, i int, traced bool) error {
	eng := w.eng
	w.eng = nil
	if eng == nil {
		eng = core.NewEngine(w.probe.engineOptions(traced)...)
	}
	// A traced run alternates untraced and traced rounds; each variant
	// runs once of each, so that the tracing overhead compares like runs.
	v := i % planVariants
	if r.opts.trace {
		v = i / 2 % planVariants
	}
	plan := w.plans[v]
	first := w.refs[v] == nil
	r.heap.takePeak()
	alloc0 := allocatedBytes()
	start, cpu0 := time.Now(), processCPU()
	pr, err := eng.RunPlan(ctx, plan)
	if err != nil {
		r.tally.record("cold plan", err.Error())
		return nil
	}
	rendered := time.Now()
	text := render(pr)
	cold, coldCPU := time.Since(start), processCPU()-cpu0
	writeDur := time.Since(rendered)
	allocMB := float64(allocatedBytes()-alloc0) / mib
	peakMB := float64(r.heap.takePeak()) / mib
	pts, evs := w.probe.take()
	r.tally.checkPoints(pts)
	if first {
		w.refs[v] = text
	}
	if i == 0 {
		r.digest = digest(text)
	}
	r.tally.record("cold plan", sameText("cold plan", text, w.refs[v])...)

	if traced {
		r.tracedPlanS.add(v, coldCPU.Seconds())
		parent := r.addSpan("plan.cold", plan.Name, 0, start, start.Add(cold))
		r.addSpan("render", plan.Name, parent, rendered, start.Add(cold))
	} else {
		r.planS.add(v, coldCPU.Seconds())
		r.wallPlanS.add(v, cold.Seconds())
		r.allocMB.add(v, allocMB)
		r.peakMB.add(v, peakMB)
		r.jobMS[tierCold] = append(r.jobMS[tierCold], ms(coldCPU))
		r.wallJobMS[tierCold] = append(r.wallJobMS[tierCold], ms(cold))
		r.addPoints(v, pts)
	}

	// Memory hits: the same plan again on the warm engine.
	settle()
	var tierCPU time.Duration
	for k := 0; k < tierReps; k++ {
		misses := eng.CacheStats().Misses
		d, cpu, text, err := rerun(ctx, eng, plan)
		if r.opts.faults.artifact && i == 0 && k == 0 {
			text = corrupt(text)
		}
		r.recordHit(tierMem, d, text, w.refs[v], err, eng.CacheStats().Misses-misses, traced)
		tierCPU += cpu
	}
	r.addTierCPU(tierMem, tierCPU, tierReps, traced)

	// Disk hits: fresh engines over a store that holds every result.
	if first {
		if err := w.fillStore(r, pts); err != nil {
			return err
		}
		if r.opts.faults.storeEntry && i == 0 {
			if err := corruptEntry(w.st.Dir()); err != nil {
				return err
			}
		}
	}
	var ts *timedStore
	if traced {
		ts = &timedStore{st: w.st}
	}
	var diskStats core.CacheStats
	settle()
	tierCPU = 0
	for k := 0; k < tierReps; k++ {
		corrupt0 := w.st.Stats().Corrupt
		de := core.NewEngine(w.probe.engineOptions(traced, core.WithDiskStore(diskTier(w.st, ts)))...)
		d, cpu, text, err := rerun(ctx, de, plan)
		tierCPU += cpu
		cs := de.CacheStats()
		r.recordHit(tierDisk, d, text, w.refs[v], err, cs.Misses, traced)
		if c := w.st.Stats().Corrupt - corrupt0; c > 0 {
			r.tally.record("disk store", fmt.Sprintf("%d corrupt entries", c))
		}
		diskStats.DiskHits += cs.DiskHits
		diskStats.Misses += cs.Misses
		diskStats.Shared += cs.Shared
		diskStats.MemoryHits += cs.MemoryHits
	}
	r.addTierCPU(tierDisk, tierCPU, tierReps, traced)
	if err := r.stopProfile(); err != nil {
		return err
	}
	hitPts, _ := w.probe.take()
	r.tally.checkPoints(hitPts)
	if !traced {
		return nil
	}

	cs := eng.CacheStats()
	r.layer("core.simulations", float64(len(pts)+len(hitPts)))
	r.layer("core.cache_misses", float64(cs.Misses+diskStats.Misses))
	r.layer("core.cache_mem_hits", float64(cs.MemoryHits+diskStats.MemoryHits))
	r.layer("core.cache_disk_hits", float64(diskStats.DiskHits))
	r.layer("core.cache_shared", float64(cs.Shared+diskStats.Shared))
	r.pool("store.get_ms", ts.gets...)
	r.pool("store.put_ms", ts.puts...)
	r.layer("store.corrupt", float64(w.st.Stats().Corrupt))
	r.planLayers(pr, pts, evs, start, cold, writeDur)
	r.simLayers(pts)
	r.tapeLayers(pts)
	return nil
}

// rerun executes plan on eng and renders it, returning the wall and
// process CPU time it took.
func rerun(ctx context.Context, eng *core.Engine, plan *core.Plan) (time.Duration, time.Duration, []byte, error) {
	start, cpu0 := time.Now(), processCPU()
	pr, err := eng.RunPlan(ctx, plan)
	if err != nil {
		return time.Since(start), processCPU() - cpu0, nil, err
	}
	text := render(pr)
	return time.Since(start), processCPU() - cpu0, text, nil
}

// addTierCPU records the CPU time per job of one untraced tier phase.
func (r *run) addTierCPU(tier string, cpu time.Duration, jobs int, traced bool) {
	if !traced {
		r.jobMS[tier] = append(r.jobMS[tier], ms(cpu)/float64(jobs))
	}
}

// recordHit checks one cache-tier re-run: it must succeed, simulate
// nothing and render the cold plan's artifacts.
func (r *run) recordHit(tier string, d time.Duration, text, ref []byte, err error, simulated int64, traced bool) {
	op := tier + "-hit plan"
	if err != nil {
		r.tally.record(op, err.Error())
		return
	}
	problems := sameText(op, text, ref)
	if simulated != 0 {
		problems = append(problems, fmt.Sprintf("simulated %d points", simulated))
	}
	r.tally.record(op, problems...)
	if !traced {
		r.wallJobMS[tier] = append(r.wallJobMS[tier], ms(d))
	}
}

// fillStore writes simulated results into the disk store, the way an
// engine with WithDiskStore writes through. It is untimed and records no
// store layers: those come from the daemon's write path on serve-replay.
func (w *planWorkload) fillStore(r *run, pts []pointRec) error {
	if w.st == nil {
		st, err := store.Open(filepath.Join(r.tmp, "store"))
		if err != nil {
			return err
		}
		w.st = st
	}
	st := w.st
	for _, p := range pts {
		if fp, ok := core.Fingerprint(p.spec, p.cfg); ok && p.err == nil {
			st.Put(fp, p.res)
		}
	}
	return st.Flush()
}

func (w *planWorkload) finish(ctx context.Context, r *run) error { return nil }

func (w *planWorkload) close() {
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
}

// corrupt flips one byte of an artifact.
func corrupt(text []byte) []byte {
	out := append([]byte(nil), text...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0x20
	}
	return out
}

// corruptEntry truncates one store entry under dir.
func corruptEntry(dir string) error {
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("no store entry to corrupt in %s", dir)
	}
	return os.WriteFile(entries[0], []byte(`{"Version":`), 0o644)
}
