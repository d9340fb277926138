package gc

import (
	"errors"
	"testing"
	"testing/quick"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
)

func newWorld(minHeapMB int64, compartments int) (*heap.Heap, *objmodel.Registry, *Collector) {
	h := heap.New(heap.Config{
		MinHeap: minHeapMB << 20, Factor: 3, TLABSize: 16 << 10,
		Compartments: compartments,
	})
	reg := objmodel.NewRegistry()
	c := New(StwSerial(), Config{Workers: 4}, h, reg)
	return h, reg, c
}

func TestDefaultWorkers(t *testing.T) {
	cases := []struct{ cores, want int }{
		{0, 1}, {1, 1}, {4, 4}, {8, 8}, {16, 13}, {48, 33},
	}
	for _, c := range cases {
		if got := DefaultWorkers(c.cores); got != c.want {
			t.Errorf("DefaultWorkers(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
}

func TestMinorReclaimsDead(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	var ids []objmodel.ID
	for i := 0; i < 100; i++ {
		id := reg.Alloc(512, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	// Kill the first 60.
	for _, id := range ids[:60] {
		reg.Kill(id)
	}
	p, err := c.CollectMinor(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReclaimedObjs != 60 {
		t.Errorf("reclaimed %d, want 60", p.ReclaimedObjs)
	}
	if p.ScannedLive != 40 {
		t.Errorf("scanned %d, want 40", p.ScannedLive)
	}
	if p.CopiedBytes != 40*512 {
		t.Errorf("copied %d, want %d", p.CopiedBytes, 40*512)
	}
	if c.YoungCount(0) != 40 {
		t.Errorf("young population %d after GC, want 40", c.YoungCount(0))
	}
	if p.Duration <= 0 {
		t.Error("non-positive pause duration")
	}
}

func TestAgingAndPromotion(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	id := reg.Alloc(1000, 0)
	c.OnAlloc(id, 0)
	threshold := int(c.Config().TenuringThreshold)
	// The object stays young until it has survived threshold collections.
	for i := 0; i < threshold-1; i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
		if got := reg.Get(id).Gen; got != objmodel.Young {
			t.Fatalf("promoted after %d collections, want %d", i+1, threshold)
		}
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Get(id).Gen != objmodel.Old {
		t.Error("object not promoted at tenuring threshold")
	}
	if p.PromotedBytes != 1000 {
		t.Errorf("promoted bytes %d, want 1000", p.PromotedBytes)
	}
	if c.OldCount() != 1 || c.YoungCount(0) != 0 {
		t.Errorf("populations young=%d old=%d", c.YoungCount(0), c.OldCount())
	}
}

func TestSurvivorOverflowPromotes(t *testing.T) {
	h, reg, c := newWorld(1, 1) // tiny heap: survivor space is small
	cap := h.SurvivorSize()
	// Allocate live objects totalling 3x survivor capacity.
	objSize := int32(1024)
	n := int(3 * cap / int64(objSize))
	for i := 0; i < n; i++ {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.PromotedBytes == 0 {
		t.Error("no overflow promotion despite survivor pressure")
	}
	if p.CopiedBytes > cap {
		t.Errorf("survivor bytes %d exceed capacity %d", p.CopiedBytes, cap)
	}
}

func TestFullCollection(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	// Build an old population: allocate, survive to promotion via repeated
	// minors.
	var ids []objmodel.ID
	for i := 0; i < 50; i++ {
		id := reg.Alloc(2048, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.OldCount() != 50 {
		t.Fatalf("old population %d, want 50", c.OldCount())
	}
	// Kill half the old objects, plus allocate some fresh young ones.
	for _, id := range ids[:25] {
		reg.Kill(id)
	}
	young := reg.Alloc(512, 0)
	c.OnAlloc(young, 0)
	p, err := c.CollectFull(5000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReclaimedObjs != 25 {
		t.Errorf("full reclaimed %d, want 25", p.ReclaimedObjs)
	}
	// Young survivor was promoted by the full collection.
	if reg.Get(young).Gen != objmodel.Old {
		t.Error("live young object not promoted by full collection")
	}
	if c.YoungCount(0) != 0 {
		t.Error("young population not emptied by full collection")
	}
	if c.OldCount() != 26 {
		t.Errorf("old population %d, want 26", c.OldCount())
	}
	if p.Kind != Full || p.Compartment != -1 {
		t.Errorf("pause metadata %+v", p)
	}
}

func TestOldGenFullError(t *testing.T) {
	h, reg, c := newWorld(1, 1)
	// Fill old gen nearly to capacity via forced promotion, then check a
	// minor that cannot promote returns ErrOldGenFull.
	objSize := int32(4096)
	budget := h.OldSize() - h.OldSize()/16
	var allocated int64
	for allocated < budget {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
		allocated += int64(objSize)
		// Tenure fast: age objects by repeated collection every batch.
		if allocated%(budget/4) < int64(objSize) {
			for i := 0; i < 4; i++ {
				if _, err := c.CollectMinor(0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Now add another survivor-overflowing batch of live objects.
	extra := h.SurvivorSize()*2/int64(objSize) + h.OldSize()/16/int64(objSize) + 2
	for i := int64(0); i < extra; i++ {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
	}
	_, err := c.CollectMinor(0, 0)
	if !errors.Is(err, heap.ErrOldGenFull) {
		t.Fatalf("err = %v, want ErrOldGenFull", err)
	}
	// After a full collection (everything is live, so this may itself be
	// tight), dead space must be reclaimed. Kill everything and verify
	// recovery.
	reg.ForEachLive(func(id objmodel.ID, _ *objmodel.Object) { reg.Kill(id) })
	if _, err := c.CollectFull(0); err != nil {
		t.Fatal(err)
	}
	if h.OldUsed() != 0 {
		t.Errorf("old gen %d bytes after collecting all-dead heap", h.OldUsed())
	}
	if _, err := c.CollectMinor(0, 0); err != nil {
		t.Errorf("minor after recovery failed: %v", err)
	}
}

func TestPauseCostScalesWithSurvivors(t *testing.T) {
	_, regA, cA := newWorld(64, 1)
	_, regB, cB := newWorld(64, 1)
	// A: 1000 dead objects. B: 1000 live objects (more copying).
	for i := 0; i < 1000; i++ {
		idA := regA.Alloc(1024, 0)
		cA.OnAlloc(idA, 0)
		regA.Kill(idA)
		idB := regB.Alloc(1024, 0)
		cB.OnAlloc(idB, 0)
	}
	pA, err := cA.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := cB.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pB.Duration <= pA.Duration {
		t.Errorf("live-heavy pause %v not longer than dead-heavy pause %v",
			pB.Duration, pA.Duration)
	}
}

func TestMoreWorkersShortenPauses(t *testing.T) {
	mk := func(workers int) Pause {
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := New(StwSerial(), Config{Workers: workers}, h, reg)
		for i := 0; i < 2000; i++ {
			id := reg.Alloc(1024, 0)
			c.OnAlloc(id, 0)
		}
		p, err := c.CollectMinor(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p8 := mk(1), mk(8)
	if p8.Duration >= p1.Duration {
		t.Errorf("8 workers (%v) not faster than 1 worker (%v)", p8.Duration, p1.Duration)
	}
	// But not linearly: the efficiency curve must cost something.
	ideal := p1.Duration / 8
	if p8.Duration <= ideal {
		t.Errorf("8 workers (%v) faster than ideal linear (%v) — efficiency model missing", p8.Duration, ideal)
	}
}

func TestCompartmentLocalCollection(t *testing.T) {
	_, reg, c := newWorld(16, 4)
	// Populate two compartments.
	a := reg.Alloc(1024, 0)
	c.OnAlloc(a, 0)
	b := reg.Alloc(1024, 0)
	c.OnAlloc(b, 1)
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Compartment != 0 {
		t.Errorf("pause compartment = %d", p.Compartment)
	}
	// Compartment 1's object must be untouched: age 0, still young-listed.
	if reg.Get(b).Age != 0 {
		t.Error("compartment-local collection aged a foreign object")
	}
	if c.YoungCount(1) != 1 {
		t.Error("compartment 1 population disturbed")
	}
	if reg.Get(a).Age != 1 {
		t.Error("collected compartment's object not aged")
	}
}

func TestPauseBreakdown(t *testing.T) {
	_, reg, c := newWorld(8, 1)
	for i := 0; i < 500; i++ {
		id := reg.Alloc(1024, 0)
		c.OnAlloc(id, 0)
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Phases.Total() != p.Duration {
		t.Errorf("phase sum %v != duration %v", p.Phases.Total(), p.Duration)
	}
	if p.Phases.Setup != fixedMinorPause {
		t.Errorf("setup phase %v, want fixed pause", p.Phases.Setup)
	}
	if p.Phases.Copy <= 0 || p.Phases.Scan <= 0 {
		t.Errorf("degenerate phases %+v with live survivors", p.Phases)
	}
	fp, err := c.CollectFull(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Phases.Total() != fp.Duration {
		t.Errorf("full phase sum %v != duration %v", fp.Phases.Total(), fp.Duration)
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, reg, c := newWorld(8, 1)
	for i := 0; i < 10; i++ {
		id := reg.Alloc(256, 0)
		c.OnAlloc(id, 0)
	}
	minor, _ := c.CollectMinor(0, 0)
	full, _ := c.CollectFull(0)
	st := c.Stats()
	if st.MinorCount != 1 || st.FullCount != 1 {
		t.Errorf("counts %d/%d, want 1/1", st.MinorCount, st.FullCount)
	}
	if st.TotalTime() != st.MinorTime+st.FullTime {
		t.Error("TotalTime inconsistent")
	}
	if st.Collections() != 2 {
		t.Errorf("collections %d, want 2", st.Collections())
	}
	if st.MaxPause != max(minor.Duration, full.Duration) {
		t.Errorf("max pause %v, want the longer of %v and %v", st.MaxPause, minor.Duration, full.Duration)
	}
	if ph := c.Phases(); ph.Total() != st.TotalTime() {
		t.Errorf("phases sum to %v, pause time %v", ph.Total(), st.TotalTime())
	}
}

func TestNewPanicsWithoutWorkers(t *testing.T) {
	h := heap.New(heap.Config{MinHeap: 1 << 20})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Workers=0")
		}
	}()
	New(StwSerial(), Config{}, h, objmodel.NewRegistry())
}

// Property: across random alloc/kill/collect sequences, the collector
// never loses a live object and never resurrects a dead one — the young and
// old populations always partition the live set after each collection
// round, and heap accounting matches registry truth.
func TestLivenessPartitionProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		h, reg, c := newWorld(32, 1)
		var live []objmodel.ID
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // allocate
				id := reg.Alloc(int32(op%200)+1, 0)
				c.OnAlloc(id, 0)
				live = append(live, id)
			case 2: // kill one live object
				if len(live) > 0 {
					idx := int(op) % len(live)
					reg.Kill(live[idx])
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // collect
				if op%8 < 6 {
					if _, err := c.CollectMinor(0, 0); err != nil {
						if _, ferr := c.CollectFull(0); ferr != nil {
							return false
						}
						if _, rerr := c.CollectMinor(0, 0); rerr != nil {
							return false
						}
					}
				} else {
					if _, err := c.CollectFull(0); err != nil {
						return false
					}
				}
				// After any collection, tracked populations contain every
				// live object exactly once.
				seen := map[objmodel.ID]int{}
				for _, id := range c.young[0] {
					if reg.Get(id).Live() {
						seen[id]++
					}
				}
				for _, id := range c.old {
					if reg.Get(id).Live() {
						seen[id]++
					}
				}
				if len(seen) < len(live) {
					// Some live objects may still be tracked as "dead
					// pending" in young lists between collections, but all
					// live ones must be present.
					return false
				}
				for _, id := range live {
					if seen[id] != 1 {
						return false
					}
				}
				// Heap's old usage covers at least the live promoted bytes.
				var oldLive int64
				for _, id := range c.old {
					if o := reg.Get(id); o.Live() {
						oldLive += int64(o.Size)
					}
				}
				if h.OldUsed() < oldLive {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOnAllocSteadyStateAllocFree: once a minor cycle has run, the young
// list keeps the capacity it had before the collection, so allocation
// refilling it to that size appends without allocating.
func TestOnAllocSteadyStateAllocFree(t *testing.T) {
	_, reg, c := newWorld(64, 1)
	const n = 8192
	ids := make([]objmodel.ID, n)
	for j := range ids {
		ids[j] = reg.Alloc(128, 0)
		c.OnAlloc(ids[j], 0)
		if j%4 != 0 {
			reg.Kill(ids[j])
		}
	}
	if _, err := c.CollectMinor(0, 0); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls f twice for one run; together they refill the
	// young list to the n entries it held at the collection.
	batch := (n - c.YoungCount(0)) / 2
	allocs := testing.AllocsPerRun(1, func() {
		for _, id := range ids[:batch] {
			c.OnAlloc(id, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("OnAlloc after a minor cycle allocated %v times per batch of %d, want 0", allocs, batch)
	}
	if got := c.YoungCount(0); got != n {
		t.Fatalf("young list holds %d entries after the refill, want %d", got, n)
	}
}

// TestFailedMinorFreesNothing: a minor collection that fails with
// ErrOldGenFull rolls back without freeing a slot, so the full
// collection that follows finds every dead object still tracked and
// frees each slot exactly once.
func TestFailedMinorFreesNothing(t *testing.T) {
	h, reg, c := newWorld(1, 1)
	const objSize = 4096
	var ids []objmodel.ID
	alloc := func() objmodel.ID {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
		return id
	}
	// Tenure live data into most of the old generation.
	budget := h.OldSize() - h.OldSize()/16
	for allocated := int64(0); allocated < budget; allocated += objSize {
		alloc()
		if allocated%(budget/4) < objSize {
			for i := 0; i < 4; i++ {
				if _, err := c.CollectMinor(0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dead := map[objmodel.ID]bool{}
	for i := 0; i < 64; i++ {
		id := alloc()
		reg.Kill(id)
		dead[id] = true
	}
	for i := h.SurvivorSize()*2/objSize + h.OldSize()/16/objSize + 2; i > 0; i-- {
		alloc()
	}
	slots := reg.Slots()
	if _, err := c.CollectMinor(0, 0); !errors.Is(err, heap.ErrOldGenFull) {
		t.Fatalf("err = %v, want ErrOldGenFull", err)
	}
	for id := range dead {
		if reg.Freed(id) {
			t.Fatalf("failed minor collection freed slot %d", id)
		}
	}
	if err := c.AuditSlots(); err != nil {
		t.Fatalf("after the failed minor collection: %v", err)
	}

	// Kill every other object so the full collection has room.
	for i, id := range ids {
		if i%2 == 0 && reg.Get(id).Live() {
			reg.Kill(id)
			dead[id] = true
		}
	}
	if _, err := c.CollectFull(0); err != nil {
		t.Fatal(err)
	}
	for id := range dead {
		if !reg.Freed(id) {
			t.Errorf("full collection left dead slot %d unfreed", id)
		}
	}
	if err := c.AuditSlots(); err != nil {
		t.Fatalf("after the full collection: %v", err)
	}
	// The free list holds each dead slot exactly once: as many new
	// objects reuse exactly those slots, and only the next one grows the
	// registry.
	reused := map[objmodel.ID]bool{}
	for range dead {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
		if !dead[id] || reused[id] {
			t.Fatalf("allocation reused slot %d (dead %v, reused before %v)", id, dead[id], reused[id])
		}
		reused[id] = true
	}
	if reg.Slots() != slots {
		t.Errorf("registry grew to %d slots while reusing freed ones, want %d", reg.Slots(), slots)
	}
	if id := reg.Alloc(objSize, 0); int(id) != slots {
		t.Errorf("allocation past the free list got slot %d, want new slot %d", id, slots)
	}
}
