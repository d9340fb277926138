package sim

// The pending-event queue discipline.
//
// The kernel needs a priority queue ordered by (at, seq) with three
// operations on the hot path — Push, Pop, Peek — plus an occasional
// indexed Remove (event cancellation). Because (at, seq) is a strict
// total order (seq is unique), *any* correct priority queue yields the
// same pop sequence, so the discipline cannot affect results:
// bit-identity is by construction, not by luck.
//
// The queue is a 4-ary min-heap. Half the depth of a binary heap, so
// siftDown — the cost center of Pop, which dominates this kernel's mix
// (nearly every scheduled event fires; cancellations are rare) — does
// half as many levels of index arithmetic and pointer stores, at the
// price of up to 3 comparisons per level. Both sifts are hole-based
// (shift, don't swap): the moving event is held in a register and
// written exactly once. End to end the choice does not matter: in 10
// seed-paired perfbench paper-plan runs (40 s each, 2-core host) a
// binary heap was faster in 6 and slower in 4, and the medians (3.48 s
// vs 3.55 s plan_s) differ by less than the quartile spread of either
// side's runs. With no measured winner, one heap is kept: this one,
// which the kernel already used.
//
// A calendar/bucket queue was considered and rejected: this kernel's
// event horizon is bimodal (sub-microsecond pipeline steps coexisting
// with multi-millisecond GC and traffic deadlines), so no fixed bucket
// width keeps buckets O(1), and resize heuristics would add branches to
// Push/Pop that the heap doesn't pay.

// eventLess is the kernel's total order: fire time, then scheduling
// order (FIFO tie-break). seq is unique, so this is a strict total
// order and pop order is independent of heap shape.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// quadHeap is the Simulator's pending-event queue: a 4-ary min-heap
// ordered by (at, seq). Hand-rolled rather than built on container/heap
// so that Push/Pop avoid interface boxing on the kernel's hottest path.
// Remove must no-op on events not in the queue (stale index) and leaves
// index == -1 on removed events, matching the event-pool lifecycle.
type quadHeap struct {
	items []*Event
}

// Len returns the number of queued events.
func (q *quadHeap) Len() int { return len(q.items) }

// Peek returns the earliest event without removing it. It panics on an
// empty queue; callers check Len first.
func (q *quadHeap) Peek() *Event { return q.items[0] }

// Push inserts an event.
func (q *quadHeap) Push(ev *Event) {
	q.items = append(q.items, nil)
	q.siftUp(len(q.items)-1, ev)
}

// Pop removes and returns the earliest event.
func (q *quadHeap) Pop() *Event {
	ev := q.items[0]
	last := len(q.items) - 1
	moved := q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0, moved)
	}
	ev.index = -1
	return ev
}

// Remove deletes an event at an arbitrary position.
func (q *quadHeap) Remove(ev *Event) {
	i := ev.index
	if i < 0 || i >= len(q.items) || q.items[i] != ev {
		return
	}
	last := len(q.items) - 1
	moved := q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if i < last {
		// The tail event fills the hole; it may need to move either way.
		q.siftDown(i, moved)
		q.siftUp(moved.index, moved)
	}
	ev.index = -1
}

// siftUp settles ev into the hole at i, shifting larger ancestors down.
// The hole-based sift writes each shifted event once and ev once, where
// a swap-based sift writes both sides at every level.
func (q *quadHeap) siftUp(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) >> 2
		par := q.items[p]
		if !eventLess(ev, par) {
			break
		}
		q.items[i] = par
		par.index = i
		i = p
	}
	q.items[i] = ev
	ev.index = i
}

// siftDown settles ev into the hole at i, shifting the smallest child
// up at each level. With fan-out 4 the heap is half as deep as a binary
// heap, so Pop touches half as many levels.
func (q *quadHeap) siftDown(i int, ev *Event) {
	n := len(q.items)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		bestEv := q.items[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if ce := q.items[c]; eventLess(ce, bestEv) {
				best, bestEv = c, ce
			}
		}
		if !eventLess(bestEv, ev) {
			break
		}
		q.items[i] = bestEv
		bestEv.index = i
		i = best
	}
	q.items[i] = ev
	ev.index = i
}
