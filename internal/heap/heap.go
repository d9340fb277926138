// Package heap models the HotSpot-style generational Java heap the paper's
// JVM used: an eden space plus two survivor spaces (the young generation)
// and a mature (old) generation, with per-thread TLAB bump allocation.
//
// Space accounting lives here; object-level liveness lives in objmodel, and
// the collection algorithms in gc. Sizing follows the paper's methodology:
// the total heap is a configurable multiple (3x in the paper) of the
// workload's minimum heap requirement, split young/old and eden/survivor
// by HotSpot's default ratios.
//
// The package also implements the paper's second future-work proposal
// (§IV): a compartmentalized heap. With Compartments > 1, eden is divided
// into equal slices, each serving one thread group; a slice filling up
// triggers a compartment-local minor collection that only disturbs that
// group's objects, isolating them from cross-thread lifetime interference.
package heap

import (
	"fmt"
)

// Config sizes a heap.
type Config struct {
	// MinHeap is the workload's minimum heap requirement in bytes — the
	// smallest heap under which it can run at all.
	MinHeap int64
	// Factor scales MinHeap to the actual heap size. The paper uses 3.
	Factor float64
	// TLABSize is the thread-local allocation buffer size in bytes.
	TLABSize int64
	// Compartments divides eden into this many independent slices
	// (future-work feature). Values <= 1 mean one shared eden.
	Compartments int
}

// WithDefaults fills unset fields with HotSpot-like defaults and the
// paper's 3x heap factor.
func (c Config) WithDefaults() Config {
	if c.Factor == 0 {
		c.Factor = 3
	}
	if c.TLABSize == 0 {
		c.TLABSize = 64 << 10
	}
	if c.Compartments < 1 {
		c.Compartments = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinHeap <= 0 {
		return fmt.Errorf("heap: MinHeap = %d, need > 0", c.MinHeap)
	}
	if c.Factor < 1 {
		return fmt.Errorf("heap: Factor = %v, need >= 1", c.Factor)
	}
	if c.TLABSize <= 0 {
		return fmt.Errorf("heap: TLABSize = %d, need > 0", c.TLABSize)
	}
	if c.Compartments < 1 {
		return fmt.Errorf("heap: Compartments = %d, need >= 1", c.Compartments)
	}
	return nil
}

// The generation split is HotSpot's default, which the paper held fixed.
// Results are stored under fingerprints of the run's inputs, not of these
// constants, so changing one needs a store.Version bump.
const (
	// newRatio is the old:young size ratio: the young generation is one
	// third of the heap.
	newRatio = 2
	// survivorRatio is the eden:survivor ratio: each survivor space is
	// 1/10 of the young generation.
	survivorRatio = 8
)

// TLABSize returns the TLAB size for threads mutators sharing a heap of
// minHeap*factor bytes whose eden is split into compartments slices.
// TLABs adapt to the eden share per thread, as HotSpot does: each slice
// holds eight TLABs for every thread mapped to it, clamped to [1 KiB,
// 64 KiB]. Eden is estimated as young*survivorRatio/(survivorRatio+2),
// which can round one way where New's young-2*survivor rounds the other;
// results are pinned to the estimate.
func TLABSize(minHeap int64, factor float64, threads, compartments int) int64 {
	young := int64(float64(minHeap)*factor) / (newRatio + 1)
	eden := young * survivorRatio / (survivorRatio + 2)
	threadsPerComp := (threads + compartments - 1) / compartments
	tlab := eden / int64(compartments) / int64(threadsPerComp*8)
	return min(max(tlab, 1<<10), 64<<10)
}

// Stats accumulates heap-level counters across a run.
type Stats struct {
	TLABRefills      int64
	DirectAllocs     int64
	MinorCommits     int64
	FullCommits      int64
	SweepCommits     int64
	PromotedBytes    int64
	CopiedBytes      int64 // survivor bytes copied during minor collections
	PretenuredAllocs int64
	PretenuredBytes  int64
}

// Heap is one instantiated generational heap.
type Heap struct {
	cfg Config

	totalSize    int64
	youngSize    int64
	edenSize     int64 // total across compartments
	survivorSize int64 // one survivor space
	oldSize      int64

	edenSlice int64 // per-compartment eden capacity
	edenUsed  []int64
	survUsed  int64
	oldUsed   int64
	fragBytes int64 // old-gen space lost to fragmentation (sweep w/o compact)

	stats Stats
}

// New builds a heap from cfg (after applying defaults). It panics on an
// invalid configuration; heap configs come from validated experiment specs.
func New(cfg Config) *Heap {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Heap{cfg: cfg}
	h.totalSize = int64(float64(cfg.MinHeap) * cfg.Factor)
	h.youngSize = h.totalSize / (newRatio + 1)
	h.oldSize = h.totalSize - h.youngSize
	// Young = eden + 2 survivors; eden:survivor = survivorRatio:1.
	h.survivorSize = h.youngSize / (survivorRatio + 2)
	h.edenSize = h.youngSize - 2*h.survivorSize
	h.edenSlice = h.edenSize / int64(cfg.Compartments)
	h.edenUsed = make([]int64, cfg.Compartments)
	return h
}

// Config returns the (defaulted) configuration.
func (h *Heap) Config() Config { return h.cfg }

// TotalSize returns the committed heap size in bytes.
func (h *Heap) TotalSize() int64 { return h.totalSize }

// EdenSize returns total eden capacity across compartments.
func (h *Heap) EdenSize() int64 { return h.edenSize }

// EdenSliceSize returns the eden capacity of one compartment.
func (h *Heap) EdenSliceSize() int64 { return h.edenSlice }

// SurvivorSize returns the capacity of one survivor space.
func (h *Heap) SurvivorSize() int64 { return h.survivorSize }

// OldSize returns the mature generation capacity.
func (h *Heap) OldSize() int64 { return h.oldSize }

// Compartments returns the number of eden slices.
func (h *Heap) Compartments() int { return h.cfg.Compartments }

// EdenUsed returns the bytes consumed in compartment comp's eden slice.
func (h *Heap) EdenUsed(comp int) int64 { return h.edenUsed[comp] }

// SurvivorUsed returns the bytes in the active survivor space.
func (h *Heap) SurvivorUsed() int64 { return h.survUsed }

// OldUsed returns the bytes in the mature generation.
func (h *Heap) OldUsed() int64 { return h.oldUsed }

// OldPressure returns old-generation occupancy in [0, 1].
func (h *Heap) OldPressure() float64 {
	return float64(h.oldUsed) / float64(h.oldSize)
}

// Stats returns a copy of the accumulated counters.
func (h *Heap) Stats() Stats { return h.stats }

// TLAB is a thread-local allocation buffer: a bump-pointer region carved
// from one eden compartment. The zero value is an empty (exhausted) TLAB.
type TLAB struct {
	remaining   int64
	compartment int
}

// Compartment returns the eden slice this TLAB was carved from.
func (t *TLAB) Compartment() int { return t.compartment }

// Remaining returns the unallocated bytes left in the TLAB.
func (t *TLAB) Remaining() int64 { return t.remaining }

// Alloc bumps size bytes off the TLAB, reporting whether it fit.
func (t *TLAB) Alloc(size int64) bool {
	if size > t.remaining {
		return false
	}
	t.remaining -= size
	return true
}

// RefillTLAB discards t's unused tail (as HotSpot does on retirement) and
// carves a fresh buffer for compartment comp. It returns false when the
// compartment's eden slice cannot fit another TLAB — the signal that a
// minor collection is due.
func (h *Heap) RefillTLAB(t *TLAB, comp int) bool {
	left := h.edenSlice - h.edenUsed[comp]
	if left < h.cfg.TLABSize {
		return false
	}
	h.edenUsed[comp] += h.cfg.TLABSize
	t.remaining = h.cfg.TLABSize
	t.compartment = comp
	h.stats.TLABRefills++
	return true
}

// AllocDirect allocates size bytes straight from compartment comp's eden
// slice, bypassing TLABs — the path for objects too large for a TLAB. It
// returns false when the slice is full.
func (h *Heap) AllocDirect(comp int, size int64) bool {
	if h.edenUsed[comp]+size > h.edenSlice {
		return false
	}
	h.edenUsed[comp] += size
	h.stats.DirectAllocs++
	return true
}

// AllocOld allocates size bytes directly in the old generation — the
// pretenuring path for allocation sites known to produce long-lived
// objects. It returns false when the old generation cannot fit the
// object; the caller must force a full collection.
func (h *Heap) AllocOld(size int64) bool {
	if h.oldUsed+size > h.oldSize {
		return false
	}
	h.oldUsed += size
	h.stats.PretenuredAllocs++
	h.stats.PretenuredBytes += size
	return true
}

// CommitMinor applies the space effects of a minor collection of
// compartment comp: eden resets, survivorBytes land in the empty survivor
// space, and promotedBytes move to the old generation. It returns an error
// if the old generation cannot absorb the promotion — the caller must run
// a full collection first.
//
// With multiple compartments, survivor space is shared: a compartment-local
// collection replaces only its own prior survivor share. For simplicity of
// accounting the shared survivor pool tracks the aggregate; the gc package
// keeps the per-object truth.
func (h *Heap) CommitMinor(comp int, survivorBytes, promotedBytes int64, priorSurvivor int64) error {
	if survivorBytes < 0 || promotedBytes < 0 {
		return fmt.Errorf("heap: negative commit (%d survivor, %d promoted)", survivorBytes, promotedBytes)
	}
	if survivorBytes > h.survivorSize {
		return fmt.Errorf("heap: survivor commit %d exceeds space %d", survivorBytes, h.survivorSize)
	}
	if h.oldUsed+promotedBytes > h.oldSize {
		return ErrOldGenFull
	}
	h.edenUsed[comp] = 0
	h.survUsed += survivorBytes - priorSurvivor
	if h.survUsed < 0 {
		h.survUsed = 0
	}
	h.oldUsed += promotedBytes
	h.stats.MinorCommits++
	h.stats.PromotedBytes += promotedBytes
	h.stats.CopiedBytes += survivorBytes
	return nil
}

// ErrOldGenFull reports that a promotion cannot fit in the old generation.
var ErrOldGenFull = fmt.Errorf("heap: old generation full")

// CommitFull applies a full collection: the old generation compacts down
// to liveOldBytes. Eden and survivor spaces are also emptied, because the
// paper's collector (HotSpot ParallelGC full collection) collects the
// entire heap. Compaction eliminates any fragmentation left by concurrent
// sweeping.
func (h *Heap) CommitFull(liveOldBytes int64) error {
	if liveOldBytes < 0 {
		return fmt.Errorf("heap: negative live bytes %d", liveOldBytes)
	}
	if liveOldBytes > h.oldSize {
		return fmt.Errorf("heap: live old bytes %d exceed old gen %d — OutOfMemoryError", liveOldBytes, h.oldSize)
	}
	h.oldUsed = liveOldBytes
	h.fragBytes = 0
	h.survUsed = 0
	for i := range h.edenUsed {
		h.edenUsed[i] = 0
	}
	h.stats.FullCommits++
	return nil
}

// Fragmentation returns the old-generation bytes currently lost to
// fragmentation.
func (h *Heap) Fragmentation() int64 { return h.fragBytes }

// CommitSweep applies a concurrent (non-compacting) old-generation sweep:
// dead space is freed in place, but fragAdd of it is unusable until a
// compacting collection. Fragmentation is capped at 30% of the old
// generation — beyond that, any real allocator forces compaction.
func (h *Heap) CommitSweep(liveOldBytes, fragAdd int64) error {
	if liveOldBytes < 0 || fragAdd < 0 {
		return fmt.Errorf("heap: negative sweep commit (%d live, %d frag)", liveOldBytes, fragAdd)
	}
	h.fragBytes += fragAdd
	if limit := h.oldSize * 3 / 10; h.fragBytes > limit {
		h.fragBytes = limit
	}
	used := liveOldBytes + h.fragBytes
	if used > h.oldSize {
		used = h.oldSize
	}
	h.oldUsed = used
	h.stats.SweepCommits++
	return nil
}
