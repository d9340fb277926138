package objmodel

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocBasics(t *testing.T) {
	r := NewRegistry()
	id := r.Alloc(128, 3)
	o := r.Get(id)
	if o.Size != 128 || o.Site != 3 || o.Gen != Young || o.Age != 0 {
		t.Errorf("object fields %+v", o)
	}
	if !o.Live() {
		t.Error("fresh object not live")
	}
	if o.Birth != 128 {
		t.Errorf("first object birth clock = %d, want 128 (after own bytes)", o.Birth)
	}
	if r.Clock() != 128 {
		t.Errorf("clock = %d, want 128", r.Clock())
	}
	id2 := r.Alloc(64, 1)
	if r.Get(id2).Birth != 192 {
		t.Errorf("second object birth = %d, want 192", r.Get(id2).Birth)
	}
}

func TestRecordIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 16 {
		t.Errorf("Object is %d bytes, want 16", got)
	}
}

func TestLifespanMetric(t *testing.T) {
	// The paper (§II-A) measures lifespan as heap memory allocated to
	// *other* objects between an object's creation and its death: allocate
	// A (100B), then B (50B), then kill A — A's lifespan is exactly B's 50
	// bytes. An object killed immediately has lifespan 0.
	r := NewRegistry()
	a := r.Alloc(100, 0)
	r.Alloc(50, 1)
	if got := r.Kill(a); got != 50 {
		t.Errorf("lifespan = %d, want 50 (B's bytes only)", got)
	}
	c := r.Alloc(32, 0)
	if got := r.Kill(c); got != 0 {
		t.Errorf("immediate-death lifespan = %d, want 0", got)
	}
	// A recycled slot measures its new object from the new birth.
	r.Free(a)
	d := r.Alloc(8, 0)
	if d != a {
		t.Fatalf("allocation took slot %d, want freed slot %d", d, a)
	}
	r.Alloc(16, 0)
	if got := r.Kill(d); got != 16 {
		t.Errorf("lifespan in a recycled slot = %d, want 16", got)
	}
}

func TestKillAccounting(t *testing.T) {
	r := NewRegistry()
	a := r.Alloc(100, 0)
	b := r.Alloc(200, 0)
	if r.LiveCount() != 2 || r.LiveBytes() != 300 {
		t.Fatalf("live %d/%d, want 2/300", r.LiveCount(), r.LiveBytes())
	}
	r.Kill(a)
	if r.LiveCount() != 1 || r.LiveBytes() != 200 {
		t.Errorf("after kill live %d/%d, want 1/200", r.LiveCount(), r.LiveBytes())
	}
	if r.DeadCount() != 1 {
		t.Errorf("dead = %d, want 1", r.DeadCount())
	}
	r.Free(a)
	r.Kill(b)
	if r.LiveCount() != 0 || r.LiveBytes() != 0 {
		t.Errorf("final live %d/%d, want 0/0", r.LiveCount(), r.LiveBytes())
	}
	if r.DeadCount() != 2 || r.Count() != 2 {
		t.Errorf("dead %d of %d allocated, want 2 of 2", r.DeadCount(), r.Count())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestDoubleKillPanics(t *testing.T) {
	r := NewRegistry()
	id := r.Alloc(10, 0)
	r.Kill(id)
	mustPanic(t, "double kill", func() { r.Kill(id) })
	r.Free(id)
	mustPanic(t, "kill of a freed slot", func() { r.Kill(id) })
}

func TestZeroSizeAllocPanics(t *testing.T) {
	mustPanic(t, "zero-size alloc", func() { NewRegistry().Alloc(0, 0) })
}

func TestFreeOfLivePanics(t *testing.T) {
	r := NewRegistry()
	id := r.Alloc(10, 0)
	mustPanic(t, "free of a live object", func() { r.Free(id) })
}

func TestDoubleFreePanics(t *testing.T) {
	r := NewRegistry()
	id := r.Alloc(10, 0)
	r.Kill(id)
	r.Free(id)
	if !r.Freed(id) {
		t.Fatal("freed slot not reported free")
	}
	mustPanic(t, "double free", func() { r.Free(id) })
}

// TestFreeListIsLIFO: freed slots are reused most recent first, and the
// registry grows only once the free list is empty.
func TestFreeListIsLIFO(t *testing.T) {
	r := NewRegistry()
	var ids []ID
	for i := 0; i < 6; i++ {
		ids = append(ids, r.Alloc(32, 0))
	}
	for _, i := range []int{1, 4, 2} {
		r.Kill(ids[i])
		r.Free(ids[i])
	}
	for _, want := range []ID{ids[2], ids[4], ids[1], 6} {
		if got := r.Alloc(32, 0); got != want {
			t.Fatalf("Alloc = slot %d, want %d", got, want)
		}
	}
	if r.Slots() != 7 || r.Count() != 10 {
		t.Errorf("slots %d for %d allocations, want 7 for 10", r.Slots(), r.Count())
	}
}

// TestGetStableAcrossPages: a record pointer survives the registry
// growing by whole pages, because pages are appended, never copied.
func TestGetStableAcrossPages(t *testing.T) {
	r := NewRegistry()
	first := r.Get(r.Alloc(24, 5))
	for i := 0; i < 3*pageSize; i++ {
		r.Alloc(8, 0)
	}
	if got := r.Get(0); got != first {
		t.Fatal("record of slot 0 moved while the registry grew")
	}
	if first.Size != 24 || first.Site != 5 || first.Birth != 24 {
		t.Errorf("slot 0 record changed to %+v", first)
	}
	last := ID(r.Slots() - 1)
	if o := r.Get(last); o.Size != 8 || o.Birth != r.Clock() {
		t.Errorf("last slot %d holds %+v", last, o)
	}
}

// TestKillAllLive: retiring every live object through ForEachLive, as
// the VM does at program exit, leaves nothing live and counts every
// allocation as a death.
func TestKillAllLive(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Alloc(100, 0)
	}
	r.Kill(2)
	r.ForEachLive(func(id ID, _ *Object) { r.Kill(id) })
	if r.LiveCount() != 0 || r.LiveBytes() != 0 {
		t.Errorf("live after retirement = %d/%d", r.LiveCount(), r.LiveBytes())
	}
	if r.DeadCount() != r.Count() {
		t.Errorf("dead %d of %d allocated", r.DeadCount(), r.Count())
	}
	for id := ID(0); id < 5; id++ {
		if r.Get(id).Live() {
			t.Errorf("object %d still live", id)
		}
	}
}

// TestForEachOrder: ForEachLive visits in slot order, not allocation
// order, once slots have been recycled.
func TestForEachOrder(t *testing.T) {
	r := NewRegistry()
	var ids []ID
	for i := 1; i <= 5; i++ {
		ids = append(ids, r.Alloc(int32(i*10), 0))
	}
	for _, id := range ids[:3] {
		r.Kill(id)
		r.Free(id)
	}
	for i := 6; i <= 8; i++ {
		r.Alloc(int32(i*10), 0) // reuses slots 2, 1, 0
	}
	var sizes []int32
	r.ForEachLive(func(id ID, o *Object) { sizes = append(sizes, o.Size) })
	want := []int32{80, 70, 60, 40, 50}
	if len(sizes) != len(want) {
		t.Fatalf("visited sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("ForEachLive out of slot order: %v, want %v", sizes, want)
		}
	}
}

func TestGenerationString(t *testing.T) {
	if Young.String() != "young" || Old.String() != "old" {
		t.Error("generation names wrong")
	}
}

// Property: the allocation clock equals the sum of all object sizes, and
// live bytes always equal the sizes of the objects not yet killed.
func TestClockConservationProperty(t *testing.T) {
	f := func(sizes []uint16, killMask []bool) bool {
		r := NewRegistry()
		var ids []ID
		var sum int64
		for _, s := range sizes {
			size := int32(s%1000) + 1
			ids = append(ids, r.Alloc(size, 0))
			sum += int64(size)
		}
		var deadBytes int64
		for i, id := range ids {
			if i < len(killMask) && killMask[i] {
				deadBytes += int64(r.Get(id).Size)
				r.Kill(id)
			}
		}
		if r.Clock() != sum {
			return false
		}
		var liveBytes int64
		r.ForEachLive(func(_ ID, o *Object) { liveBytes += int64(o.Size) })
		return liveBytes == r.LiveBytes() && liveBytes+deadBytes == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: lifespans are never negative, and an object allocated last has
// lifespan exactly 0 when everything is retired together.
func TestLifespanNonNegativeProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		r := NewRegistry()
		for _, s := range sizes {
			r.Alloc(int32(s%512)+1, 0)
		}
		ok := true
		var lastLifespan int64 = -1
		r.ForEachLive(func(id ID, o *Object) {
			ls := r.Kill(id)
			if ls < 0 {
				ok = false
			}
			if int(id) == len(sizes)-1 {
				lastLifespan = ls
			}
		})
		if len(sizes) > 0 && lastLifespan != 0 {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForEachLive(t *testing.T) {
	r := NewRegistry()
	var ids []ID
	for i := 0; i < 6; i++ {
		ids = append(ids, r.Alloc(64, 0))
	}
	r.Kill(ids[1])
	r.Kill(ids[4])
	r.Free(ids[4])

	var visited []ID
	r.ForEachLive(func(id ID, o *Object) {
		if !o.Live() {
			t.Errorf("ForEachLive visited dead object %d", id)
		}
		visited = append(visited, id)
	})
	want := []ID{ids[0], ids[2], ids[3], ids[5]}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v (allocation order)", visited, want)
		}
	}
}

// ForEachLive must tolerate fn killing the object it was handed — the
// end-of-run retirement pattern — and still visit every object that was
// live at call time exactly once.
func TestForEachLiveKillDuringIteration(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Alloc(32, 0)
	}
	n := 0
	r.ForEachLive(func(id ID, o *Object) {
		n++
		r.Kill(id)
	})
	if n != 5 {
		t.Errorf("visited %d objects, want 5", n)
	}
	if r.LiveCount() != 0 {
		t.Errorf("LiveCount = %d after retiring all, want 0", r.LiveCount())
	}
}
