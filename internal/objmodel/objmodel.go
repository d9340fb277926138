// Package objmodel tracks the simulated heap objects the collector still
// holds, reproducing the measurement model of Elephant Tracks (Ricci,
// Guyer, Moss — ISMM 2013), the tracer the paper uses.
//
// The central metric is the paper's definition of object lifespan (§II-A):
// the amount of heap memory allocated to other objects between an object's
// creation and its death. The registry therefore stamps each object with
// the global allocation clock — cumulative bytes ever allocated — at
// birth; Kill returns the clock's advance since then, the lifespan in
// bytes.
//
// Records are 16 bytes and live in fixed-size pages that are never
// copied. A slot stays occupied from Alloc until the collector has
// dropped the dead object from its young or old list and calls Free;
// freed slots are reused last-in first-out. The registry's slot count is
// therefore the collector's peak tracked population (live objects plus
// uncollected garbage), not the run's allocation history.
package objmodel

import "fmt"

// ID names a registry slot. An ID denotes one object from Alloc until
// Free; afterwards Alloc may hand the slot to a new object.
type ID uint32

// Generation is the heap generation holding an object.
type Generation uint8

const (
	// Young objects live in the nursery (eden or a survivor space).
	Young Generation = iota
	// Old objects have been promoted to the mature generation.
	Old
)

// String returns the generation name.
func (g Generation) String() string {
	if g == Young {
		return "young"
	}
	return "old"
}

// Birth values of slots that hold no live object.
const (
	dead  = -1 // killed, still tracked by the collector
	freed = -2 // on the free list; Size holds the next free slot
)

// Object is the per-object record. Callers receive pointers into the
// registry's pages, which stay valid for the registry's lifetime; after
// Free the pointer describes whatever object reuses the slot.
type Object struct {
	// Birth is the global allocation clock (bytes allocated by everyone,
	// ever) when the object was created; negative once it has died.
	Birth int64
	// Size is the object's size in bytes, including header.
	Size int32
	// Age counts the minor collections this object has survived; it drives
	// the tenuring decision.
	Age uint8
	// Gen is the generation currently holding the object.
	Gen Generation
	// Site is the allocation site, which the pretenuring learner keys on.
	Site uint8
	_    uint8
}

// Live reports whether the object has not yet died.
func (o *Object) Live() bool { return o.Birth >= 0 }

// Records live in pages of 4096 (64 KiB).
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	noSlot   = ^ID(0) // the end of the free list
)

// Registry owns the object records of one VM run.
type Registry struct {
	pages []*[pageSize]Object
	slots ID // slots ever handed out: the high-water mark
	free  ID // head of the free list, noSlot when empty

	liveCount int64
	liveBytes int64

	allocated      int64 // objects ever allocated
	allocatedBytes int64 // == the allocation clock

	diedCount int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{free: noSlot} }

// Reset empties the registry for a new run but keeps its record pages:
// Alloc overwrites each reused record as it hands its slot out, and no
// slot past the high-water mark is ever read.
func (r *Registry) Reset() { *r = Registry{pages: r.pages, free: noSlot} }

// Trim drops the record pages above the high-water mark, which a reset
// registry would otherwise carry over from an earlier, larger run.
func (r *Registry) Trim() {
	used := (int(r.slots) + pageSize - 1) >> pageBits
	clear(r.pages[used:])
	r.pages = r.pages[:used]
}

// Alloc records a new young object of the given size from an allocation
// site and returns its slot, the most recently freed one if any. It
// advances the allocation clock by size. The birth clock is sampled after
// the object's own bytes are counted, so a lifespan measures only memory
// allocated to *other* objects between creation and death — the paper's
// §II-A definition.
func (r *Registry) Alloc(size int32, site uint8) ID {
	if size <= 0 {
		panic(fmt.Sprintf("objmodel: Alloc size %d", size))
	}
	id := r.free
	if id != noSlot {
		r.free = ID(uint32(r.Get(id).Size))
	} else {
		id = r.slots
		if int(id>>pageBits) == len(r.pages) {
			r.pages = append(r.pages, new([pageSize]Object))
		}
		r.slots++
	}
	r.allocated++
	r.allocatedBytes += int64(size)
	*r.Get(id) = Object{Birth: r.allocatedBytes, Size: size, Gen: Young, Site: site}
	r.liveCount++
	r.liveBytes += int64(size)
	return id
}

// Kill marks an object dead at the current allocation clock and returns
// its lifespan. Killing a dead or freed object panics: the workload driver
// owns each object's single death, and a double kill means lifespans
// would be corrupted.
func (r *Registry) Kill(id ID) int64 {
	o := r.Get(id)
	if !o.Live() {
		panic(fmt.Sprintf("objmodel: kill of dead object %d", id))
	}
	lifespan := r.allocatedBytes - o.Birth
	o.Birth = dead
	r.liveCount--
	r.liveBytes -= int64(o.Size)
	r.diedCount++
	return lifespan
}

// Free returns a dead object's slot for reuse. The collector calls it
// once it has dropped the object from its young or old list. Freeing a
// live or already-freed slot panics.
func (r *Registry) Free(id ID) {
	o := r.Get(id)
	if o.Birth != dead {
		panic(fmt.Sprintf("objmodel: free of slot %d (birth %d), want a dead object", id, o.Birth))
	}
	*o = Object{Birth: freed, Size: int32(uint32(r.free))}
	r.free = id
}

// Freed reports whether slot id is on the free list.
func (r *Registry) Freed(id ID) bool { return r.Get(id).Birth == freed }

// Get returns the record in slot id.
func (r *Registry) Get(id ID) *Object { return &r.pages[id>>pageBits][id&pageMask] }

// Slots returns the number of slots ever handed out: the registry's
// high-water mark of occupied slots.
func (r *Registry) Slots() int { return int(r.slots) }

// Clock returns the global allocation clock: total bytes ever allocated.
func (r *Registry) Clock() int64 { return r.allocatedBytes }

// Count returns the number of objects ever allocated.
func (r *Registry) Count() int64 { return r.allocated }

// LiveCount returns the number of currently live objects.
func (r *Registry) LiveCount() int64 { return r.liveCount }

// LiveBytes returns the bytes held by live objects.
func (r *Registry) LiveBytes() int64 { return r.liveBytes }

// DeadCount returns the number of objects that have died.
func (r *Registry) DeadCount() int64 { return r.diedCount }

// ForEachLive calls fn for every object live at the time of the call, in
// slot order. fn may kill the object it is handed (the VM's end-of-run
// retirement does); such objects still count as live at call time. fn
// must not kill not-yet-visited objects or allocate new ones.
func (r *Registry) ForEachLive(fn func(ID, *Object)) {
	left := r.liveCount
	for id := ID(0); id < r.slots && left > 0; id++ {
		if o := r.Get(id); o.Live() {
			left--
			fn(id, o)
		}
	}
}
