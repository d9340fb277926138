package heap

import (
	"errors"
	"testing"
	"testing/quick"

	"javasim/internal/workload"
)

func testConfig() Config {
	return Config{MinHeap: 96 << 20, Factor: 3, TLABSize: 64 << 10}
}

func TestSizing(t *testing.T) {
	h := New(testConfig())
	if h.TotalSize() != 288<<20 {
		t.Errorf("total = %d, want 288 MiB", h.TotalSize())
	}
	// newRatio 2: young = total/3.
	if h.youngSize != 96<<20 {
		t.Errorf("young = %d, want 96 MiB", h.youngSize)
	}
	// Young = eden + 2 survivors, eden/survivor = 8.
	if h.EdenSize()+2*h.SurvivorSize() != h.youngSize {
		t.Error("young generation does not decompose into eden + 2 survivors")
	}
	if h.EdenSize() <= h.SurvivorSize() {
		t.Error("eden not larger than survivor space")
	}
	if h.OldSize()+h.youngSize != h.TotalSize() {
		t.Error("old + young != total")
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{MinHeap: 1 << 20}.WithDefaults()
	if c.Factor != 3 || c.TLABSize != 64<<10 || c.Compartments != 1 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{MinHeap: 0, Factor: 3, TLABSize: 1, Compartments: 1},
		{MinHeap: 1, Factor: 0.5, TLABSize: 1, Compartments: 1},
		{MinHeap: 1, Factor: 3, TLABSize: 0, Compartments: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestTLABLifecycle(t *testing.T) {
	h := New(testConfig())
	var tlab TLAB
	if tlab.Alloc(1) {
		t.Error("zero TLAB allowed allocation")
	}
	if !h.RefillTLAB(&tlab, 0) {
		t.Fatal("refill failed on fresh heap")
	}
	if tlab.Remaining() != 64<<10 {
		t.Errorf("remaining = %d, want 64KiB", tlab.Remaining())
	}
	if !tlab.Alloc(1000) {
		t.Error("allocation failed with room")
	}
	if tlab.Remaining() != 64<<10-1000 {
		t.Errorf("remaining = %d after alloc", tlab.Remaining())
	}
	if tlab.Alloc(64 << 10) {
		t.Error("oversized allocation fit")
	}
}

func TestTLABExhaustsEden(t *testing.T) {
	h := New(Config{MinHeap: 1 << 20, Factor: 3, TLABSize: 64 << 10})
	var tlab TLAB
	refills := 0
	for h.RefillTLAB(&tlab, 0) {
		refills++
		if refills > 10000 {
			t.Fatal("eden never exhausted")
		}
	}
	if refills == 0 {
		t.Fatal("no refills succeeded")
	}
	want := int(h.EdenSliceSize() / (64 << 10))
	if refills != want {
		t.Errorf("refills = %d, want %d", refills, want)
	}
	if h.Stats().TLABRefills != int64(refills) {
		t.Error("refill stats mismatch")
	}
}

func TestAllocDirect(t *testing.T) {
	h := New(testConfig())
	big := h.EdenSliceSize() / 2
	if !h.AllocDirect(0, big) {
		t.Fatal("direct alloc failed with room")
	}
	if h.EdenUsed(0) != big {
		t.Errorf("eden used = %d, want %d", h.EdenUsed(0), big)
	}
	if h.AllocDirect(0, h.EdenSliceSize()) {
		t.Error("direct alloc succeeded past capacity")
	}
}

func TestCommitMinor(t *testing.T) {
	h := New(testConfig())
	h.AllocDirect(0, 1000)
	if err := h.CommitMinor(0, 400, 100, 0); err != nil {
		t.Fatal(err)
	}
	if h.EdenUsed(0) != 0 {
		t.Error("eden not reset by minor commit")
	}
	if h.SurvivorUsed() != 400 {
		t.Errorf("survivor = %d, want 400", h.SurvivorUsed())
	}
	if h.OldUsed() != 100 {
		t.Errorf("old = %d, want 100", h.OldUsed())
	}
	// Second minor replaces the prior survivor population.
	if err := h.CommitMinor(0, 300, 50, 400); err != nil {
		t.Fatal(err)
	}
	if h.SurvivorUsed() != 300 {
		t.Errorf("survivor = %d, want 300", h.SurvivorUsed())
	}
	if h.OldUsed() != 150 {
		t.Errorf("old = %d, want 150", h.OldUsed())
	}
}

func TestCommitMinorOldGenFull(t *testing.T) {
	h := New(testConfig())
	if err := h.CommitMinor(0, 0, h.OldSize()+1, 0); !errors.Is(err, ErrOldGenFull) {
		t.Errorf("err = %v, want ErrOldGenFull", err)
	}
}

func TestCommitMinorRejectsBadArgs(t *testing.T) {
	h := New(testConfig())
	if err := h.CommitMinor(0, -1, 0, 0); err == nil {
		t.Error("negative survivor accepted")
	}
	if err := h.CommitMinor(0, h.SurvivorSize()+1, 0, 0); err == nil {
		t.Error("survivor overflow accepted")
	}
}

func TestCommitFull(t *testing.T) {
	h := New(testConfig())
	h.CommitMinor(0, 100, h.OldSize()/2, 0)
	h.AllocDirect(0, 5000)
	if err := h.CommitFull(1 << 20); err != nil {
		t.Fatal(err)
	}
	if h.OldUsed() != 1<<20 {
		t.Errorf("old = %d after full, want 1 MiB", h.OldUsed())
	}
	if h.SurvivorUsed() != 0 || h.EdenUsed(0) != 0 {
		t.Error("full GC did not clear young generation")
	}
	if h.Stats().FullCommits != 1 {
		t.Error("full commit not counted")
	}
}

func TestCommitFullOOM(t *testing.T) {
	h := New(testConfig())
	if err := h.CommitFull(h.OldSize() + 1); err == nil {
		t.Error("live bytes beyond old gen accepted — should be OOM")
	}
	if err := h.CommitFull(-1); err == nil {
		t.Error("negative live bytes accepted")
	}
}

func TestCompartments(t *testing.T) {
	cfg := testConfig()
	cfg.Compartments = 4
	h := New(cfg)
	if h.Compartments() != 4 {
		t.Fatalf("compartments = %d", h.Compartments())
	}
	if h.EdenSliceSize() != h.EdenSize()/4 {
		t.Errorf("slice = %d, want eden/4", h.EdenSliceSize())
	}
	// Filling one compartment must not affect another.
	h.AllocDirect(0, h.EdenSliceSize())
	if h.AllocDirect(0, 1) {
		t.Error("compartment 0 not full")
	}
	if !h.AllocDirect(1, h.EdenSliceSize()) {
		t.Error("compartment 1 affected by compartment 0")
	}
	// Minor commit of compartment 0 leaves compartment 1 intact.
	if err := h.CommitMinor(0, 10, 0, 0); err != nil {
		t.Fatal(err)
	}
	if h.EdenUsed(1) != h.EdenSliceSize() {
		t.Error("minor commit of compartment 0 reset compartment 1")
	}
}

// Property: for any valid sizing, the space decomposition is exact and all
// spaces are positive.
func TestSizingProperty(t *testing.T) {
	f := func(minHeapMB uint8, factor uint8) bool {
		cfg := Config{
			MinHeap:  (int64(minHeapMB%200) + 8) << 20,
			Factor:   float64(factor%6) + 1,
			TLABSize: 32 << 10,
		}
		h := New(cfg)
		if h.EdenSize() <= 0 || h.SurvivorSize() <= 0 || h.OldSize() <= 0 {
			return false
		}
		return h.EdenSize()+2*h.SurvivorSize()+h.OldSize() == h.TotalSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: eden usage never exceeds slice capacity under any interleaving
// of TLAB refills and direct allocations.
func TestEdenBoundProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := New(Config{MinHeap: 4 << 20, Factor: 3, TLABSize: 16 << 10})
		var tlab TLAB
		for _, op := range ops {
			if op%2 == 0 {
				h.RefillTLAB(&tlab, 0)
			} else {
				h.AllocDirect(0, int64(op)*16)
			}
			if h.EdenUsed(0) > h.EdenSliceSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTLABSizeMatchesFormula pins TLABSize to the eden estimate it
// replaced, total/3*8/10 split across compartments and threads, over
// every registered workload's minimum heap at several scales, so sizing
// TLABs from the heap's own generation constants moves no result.
func TestTLABSizeMatchesFormula(t *testing.T) {
	old := func(minHeap int64, factor float64, threads, comps int) int64 {
		edenEstimate := int64(float64(minHeap)*factor) / 3 * 8 / 10
		threadsPerComp := (threads + comps - 1) / comps
		tlab := edenEstimate / int64(comps) / int64(threadsPerComp*8)
		if tlab < 1<<10 {
			tlab = 1 << 10
		}
		if tlab > 64<<10 {
			tlab = 64 << 10
		}
		return tlab
	}
	for _, name := range workload.Registry.Names() {
		spec, err := workload.Registry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{0.02, 0.05, 0.1, 1} {
			s := spec.Scale(scale)
			minHeap := s.MinHeapBytes()
			for _, factor := range []float64{1.5, 1.6, 2, 3, 4, 6} {
				for threads := 1; threads <= 48; threads++ {
					for _, comps := range []int{1, 2, 4, 8} {
						got, want := TLABSize(minHeap, factor, threads, comps), old(minHeap, factor, threads, comps)
						if got != want {
							t.Fatalf("%s@%v: TLABSize(%d, %v, %d, %d) = %d, want %d",
								name, scale, minHeap, factor, threads, comps, got, want)
						}
					}
				}
			}
		}
	}
}
