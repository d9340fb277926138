package gc

import (
	"testing"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
)

func TestOldLiveCountAndMarkWork(t *testing.T) {
	_, reg, c := newWorld(8, 1)
	var ids []objmodel.ID
	for i := 0; i < 40; i++ {
		id := reg.Alloc(1024, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	// Promote everything via repeated minors.
	for i := 0; i < int(c.Config().TenuringThreshold); i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.OldLiveCount(); got != 40 {
		t.Fatalf("old live = %d, want 40", got)
	}
	reg.Kill(ids[0])
	reg.Kill(ids[1])
	if got := c.OldLiveCount(); got != 38 {
		t.Errorf("old live after kills = %d, want 38", got)
	}
	if c.MarkWork(38) != 38*concMarkCostPerObject {
		t.Error("mark work miscomputed")
	}
	if c.SweepWork() <= 0 {
		t.Error("sweep work not positive")
	}
}

func TestSweepOldReclaimsWithFragmentation(t *testing.T) {
	h, reg, c := newWorld(8, 1)
	var ids []objmodel.ID
	for i := 0; i < 100; i++ {
		id := reg.Alloc(2048, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	for i := 0; i < int(c.Config().TenuringThreshold); i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:60] {
		reg.Kill(id)
	}
	oldBefore := h.OldUsed()
	res := c.SweepOld(0)
	if res.ReclaimedObjs != 60 || res.ReclaimedB != 60*2048 {
		t.Errorf("reclaimed %d objs / %d B, want 60 / %d", res.ReclaimedObjs, res.ReclaimedB, 60*2048)
	}
	if res.LiveOldBytes != 40*2048 {
		t.Errorf("live %d, want %d", res.LiveOldBytes, 40*2048)
	}
	wantFrag := int64(float64(res.ReclaimedB) * fragmentationRatio)
	if res.FragAdded != wantFrag {
		t.Errorf("frag %d, want %d", res.FragAdded, wantFrag)
	}
	if h.Fragmentation() != wantFrag {
		t.Errorf("heap frag %d, want %d", h.Fragmentation(), wantFrag)
	}
	// Occupancy dropped, but by less than the reclaimed bytes (the
	// fragmentation tax).
	if h.OldUsed() >= oldBefore {
		t.Error("sweep did not reduce old occupancy")
	}
	if oldBefore-h.OldUsed() >= res.ReclaimedB {
		t.Error("sweep reclaimed without fragmentation tax")
	}
	if c.OldCount() != 40 {
		t.Errorf("old population %d after sweep, want 40", c.OldCount())
	}
	if c.Stats().ConcCycles != 1 {
		t.Error("cycle not counted")
	}
	// A subsequent full collection compacts fragmentation away.
	if _, err := c.CollectFull(0); err != nil {
		t.Fatal(err)
	}
	if h.Fragmentation() != 0 {
		t.Error("full collection did not reset fragmentation")
	}
}

func TestInitialMarkRemarkPauses(t *testing.T) {
	_, _, c := newWorld(4, 1)
	im := c.InitialMark(100)
	if im.Kind != InitialMark || im.Duration != initialMarkPause {
		t.Errorf("initial mark pause %+v", im)
	}
	rm := c.Remark(200)
	if rm.Kind != Remark || rm.Duration != remarkPause {
		t.Errorf("remark pause %+v", rm)
	}
	st := c.Stats()
	if st.ConcPauseTime != im.Duration+rm.Duration {
		t.Errorf("conc pause time %v", st.ConcPauseTime)
	}
	if st.TotalTime() != st.ConcPauseTime {
		t.Error("TotalTime must include concurrent pauses")
	}
	if st.ConcPauses != 2 || st.Collections() != 2 {
		t.Errorf("pauses not counted: %d concurrent, %d in all", st.ConcPauses, st.Collections())
	}
	if st.MaxPause != max(im.Duration, rm.Duration) {
		t.Errorf("max pause %v", st.MaxPause)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Minor: "minor", Full: "full",
		InitialMark: "initial-mark", Remark: "remark",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFragmentationCap(t *testing.T) {
	h := heap.New(heap.Config{MinHeap: 1 << 20, Factor: 3})
	// Sweep huge fragmentation repeatedly; it must cap at 30% of old gen.
	for i := 0; i < 10; i++ {
		if err := h.CommitSweep(0, h.OldSize()); err != nil {
			t.Fatal(err)
		}
	}
	if h.Fragmentation() != h.OldSize()*3/10 {
		t.Errorf("fragmentation %d, want cap %d", h.Fragmentation(), h.OldSize()*3/10)
	}
	if err := h.CommitSweep(-1, 0); err == nil {
		t.Error("negative live bytes accepted")
	}
}
