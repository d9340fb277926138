package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// testQueue is the part of quadHeap's method set the harness drives.
type testQueue interface {
	Len() int
	Push(ev *Event)
	Pop() *Event
	Remove(ev *Event)
}

// sortedQueue is the differential oracle: a slice kept sorted by
// eventLess, with linear insert and remove. Too slow for the kernel,
// simple enough to be obviously right. It does not track positions:
// index 0 marks a queued event and -1 a popped or removed one, which is
// all the pool lifecycle reads.
type sortedQueue struct{ items []*Event }

func (q *sortedQueue) Len() int { return len(q.items) }

func (q *sortedQueue) Push(ev *Event) {
	i := sort.Search(len(q.items), func(i int) bool { return eventLess(ev, q.items[i]) })
	q.items = slices.Insert(q.items, i, ev)
	ev.index = 0
}

func (q *sortedQueue) Pop() *Event {
	ev := q.items[0]
	q.items = q.items[1:]
	ev.index = -1
	return ev
}

func (q *sortedQueue) Remove(ev *Event) {
	if i := slices.Index(q.items, ev); i >= 0 {
		q.items = slices.Delete(q.items, i, i+1)
		ev.index = -1
	}
}

// queueHarness drives a queue through the same lifecycle the
// Simulator imposes: pooled records, (at, seq) stamping, cancellation
// via Remove, and recycling at fire/cancel time. Two harnesses fed the
// same operation stream must agree on everything observable.
type queueHarness struct {
	q    testQueue
	now  Time
	seq  uint64
	free []*Event
	live []*Event // schedule order, holes where fired/canceled
}

func (h *queueHarness) schedule(at Time) *Event {
	h.seq++
	var ev *Event
	if n := len(h.free); n > 0 {
		ev = h.free[n-1]
		h.free = h.free[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.at, ev.seq = at, h.seq
	h.q.Push(ev)
	h.live = append(h.live, ev)
	return ev
}

func (h *queueHarness) cancel(ev *Event) bool {
	if ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	h.q.Remove(ev)
	h.free = append(h.free, ev)
	return true
}

func (h *queueHarness) step() (Time, uint64, bool) {
	if h.q.Len() == 0 {
		return 0, 0, false
	}
	ev := h.q.Pop()
	if ev.at < h.now {
		panic("queue returned an event from the past")
	}
	h.now = ev.at
	at, seq := ev.at, ev.seq
	h.free = append(h.free, ev)
	return at, seq, true
}

// TestQueueDisciplineDifferential drives the 4-ary heap and the
// sorted-slice oracle through identical randomized schedule / cancel
// / fire interleavings and asserts they observe identical pop order and
// identical pool recycling. Because (at, seq) is a strict total order,
// any divergence is a bug in the heap, not a legitimate tie resolution.
// Run under -race in CI (subtests are parallel).
func TestQueueDisciplineDifferential(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			quad := &queueHarness{q: &quadHeap{}}
			ref := &queueHarness{q: &sortedQueue{}}
			rng := NewRand(0xD1FF + uint64(trial)*0x9E3779B9)

			pendingIdx := func(h *queueHarness) []int {
				var idx []int
				for i, ev := range h.live {
					if ev != nil && ev.index >= 0 && !ev.canceled {
						idx = append(idx, i)
					}
				}
				return idx
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(10); {
				case r < 5: // schedule, with deliberate timestamp ties
					at := quad.now + Time(rng.Intn(64))
					quad.schedule(at)
					ref.schedule(at)
				case r < 7: // cancel a random still-pending event
					idx := pendingIdx(quad)
					if len(idx) == 0 {
						continue
					}
					pick := idx[rng.Intn(len(idx))]
					cq := quad.cancel(quad.live[pick])
					cr := ref.cancel(ref.live[pick])
					if cq != cr {
						t.Fatalf("op %d: cancel diverged: quad=%v ref=%v", op, cq, cr)
					}
				default: // fire the earliest event
					qa, qs, qok := quad.step()
					ra, rs, rok := ref.step()
					if qok != rok || qa != ra || qs != rs {
						t.Fatalf("op %d: pop diverged: quad=(%v,%d,%v) ref=(%v,%d,%v)",
							op, qa, qs, qok, ra, rs, rok)
					}
				}
				if len(quad.free) != len(ref.free) {
					t.Fatalf("op %d: pool diverged: quad free=%d ref free=%d",
						op, len(quad.free), len(ref.free))
				}
			}

			// Drain both; the full remaining pop order must match too.
			for {
				qa, qs, qok := quad.step()
				ra, rs, rok := ref.step()
				if qok != rok || qa != ra || qs != rs {
					t.Fatalf("drain diverged: quad=(%v,%d,%v) ref=(%v,%d,%v)",
						qa, qs, qok, ra, rs, rok)
				}
				if !qok {
					break
				}
			}
			if len(quad.free) != len(ref.free) {
				t.Fatalf("final pool diverged: quad free=%d ref free=%d",
					len(quad.free), len(ref.free))
			}
		})
	}
}

// TestQuadHeapRemoveInvariant removes events from arbitrary interior
// positions and checks the heap invariant and index bookkeeping survive
// — the Remove path sifts the relocated tail event both directions.
func TestQuadHeapRemoveInvariant(t *testing.T) {
	rng := NewRand(0xBADC0DE)
	q := &quadHeap{}
	var evs []*Event
	for i := 0; i < 500; i++ {
		ev := &Event{at: Time(rng.Intn(100)), seq: uint64(i + 1)}
		q.Push(ev)
		evs = append(evs, ev)
	}
	// Remove every third event by original insertion order.
	for i := 0; i < len(evs); i += 3 {
		q.Remove(evs[i])
		if evs[i].index != -1 {
			t.Fatalf("removed event %d has index %d, want -1", i, evs[i].index)
		}
	}
	// Double-remove must no-op.
	q.Remove(evs[0])
	for i, ev := range q.items {
		if ev.index != i {
			t.Fatalf("slot %d holds event with index %d", i, ev.index)
		}
		if parent := (i - 1) >> 2; i > 0 && eventLess(ev, q.items[parent]) {
			t.Fatalf("heap invariant violated at slot %d", i)
		}
	}
	var prev *Event
	for q.Len() > 0 {
		ev := q.Pop()
		if prev != nil && eventLess(ev, prev) {
			t.Fatalf("pop order regressed: (%v,%d) after (%v,%d)", ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
	}
}
