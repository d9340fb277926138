package gc

import (
	"javasim/internal/sim"
)

// Concurrent-collection operations (CMS-style). The cycle state machine
// lives in the VM — it owns the scheduler threads that perform the
// concurrent work — while the collector provides the mark/sweep mechanics
// and the brief bracketing pauses.

// OldLiveCount returns the number of live old-generation objects: the
// concurrent marking workload at cycle start. Objects promoted after the
// count are floating garbage for this cycle, as in a real
// snapshot-at-the-beginning collector.
func (c *Collector) OldLiveCount() int64 {
	var n int64
	for _, id := range c.old {
		if c.reg.Get(id).Live() {
			n++
		}
	}
	return n
}

// MarkWork returns the total CPU time concurrent marking needs for the
// given live-object count, before division across concurrent GC threads.
func (c *Collector) MarkWork(liveObjects int64) sim.Time {
	return sim.Time(liveObjects) * concMarkCostPerObject
}

// SweepWork returns the total CPU time a concurrent sweep over the old
// region needs.
func (c *Collector) SweepWork() sim.Time {
	return sim.Time(c.heap.OldSize()/1024) * sweepCostPerKB
}

// InitialMark records the brief stop-the-world pause that begins a
// concurrent cycle. The caller adds the returned duration to the current
// stop-the-world window.
func (c *Collector) InitialMark(now sim.Time) Pause {
	p := Pause{
		Kind:        InitialMark,
		Start:       now,
		Duration:    initialMarkPause,
		Phases:      Breakdown{Setup: initialMarkPause},
		Compartment: -1,
	}
	c.record(p)
	return p
}

// Remark records the brief stop-the-world pause that closes concurrent
// marking.
func (c *Collector) Remark(now sim.Time) Pause {
	p := Pause{
		Kind:        Remark,
		Start:       now,
		Duration:    remarkPause,
		Phases:      Breakdown{Setup: remarkPause},
		Compartment: -1,
	}
	c.record(p)
	return p
}

// SweepResult summarizes a completed concurrent sweep.
type SweepResult struct {
	ReclaimedObjs int64
	ReclaimedB    int64
	LiveOldBytes  int64
	FragAdded     int64
}

// SweepOld reclaims dead old-generation objects in place, freeing their
// registry slots as it goes. There is no compaction, so
// fragmentationRatio of the freed space is lost until the next full
// collection. It never fails: sweeping only shrinks occupancy.
func (c *Collector) SweepOld(now sim.Time) SweepResult {
	c.notePeak()
	var res SweepResult
	newOld := c.old[:0]
	for _, id := range c.old {
		o := c.reg.Get(id)
		if !o.Live() {
			res.ReclaimedObjs++
			res.ReclaimedB += int64(o.Size)
			c.reg.Free(id)
			continue
		}
		res.LiveOldBytes += int64(o.Size)
		newOld = append(newOld, id)
	}
	c.old = newOld
	res.FragAdded = int64(float64(res.ReclaimedB) * fragmentationRatio)
	if err := c.heap.CommitSweep(res.LiveOldBytes, res.FragAdded); err != nil {
		// Sweeping with non-negative inputs cannot fail; a failure here is
		// a programming error in the collector.
		panic(err)
	}
	c.stats.ConcCycles++
	c.stats.ReclaimedB += res.ReclaimedB
	return res
}
