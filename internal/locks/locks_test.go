package locks

import (
	"testing"
	"testing/quick"

	"javasim/internal/sim"
)

func TestUncontendedAcquire(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	if got := tb.Acquire(m, 1, 0); got.Kind != Acquired {
		t.Fatalf("Acquire = %v, want Acquired", got.Kind)
	}
	if m.Owner() != 1 {
		t.Errorf("owner = %d, want 1", m.Owner())
	}
	if m.Acquisitions() != 1 || m.Contentions() != 0 {
		t.Errorf("counters %d/%d, want 1/0", m.Acquisitions(), m.Contentions())
	}
	h := tb.Release(m, 1, 10)
	if h.Direct || len(h.Retry) != 0 {
		t.Error("release of uncontended lock reported handoff")
	}
	if m.Owner() != NoThread {
		t.Error("monitor still owned after release")
	}
}

func TestReentrancy(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	tb.Acquire(m, 1, 0)
	if got := tb.Acquire(m, 1, 1); got.Kind != Acquired {
		t.Fatal("reentrant acquire blocked")
	}
	if m.Contentions() != 0 {
		t.Error("reentrant acquire counted as contention")
	}
	if h := tb.Release(m, 1, 2); h.Direct {
		t.Error("inner release caused handoff")
	}
	if m.Owner() != 1 {
		t.Error("owner lost after inner release")
	}
	tb.Release(m, 1, 3)
	if m.Owner() != NoThread {
		t.Error("monitor owned after outer release")
	}
}

func TestContentionAndFIFOHandoff(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	if got := tb.Acquire(m, 2, 1); got.Kind != Parked {
		t.Fatal("second acquire not parked")
	}
	if got := tb.Acquire(m, 3, 2); got.Kind != Parked {
		t.Fatal("third acquire not parked")
	}
	if m.Contentions() != 2 {
		t.Errorf("contentions = %d, want 2", m.Contentions())
	}
	if m.QueueLength() != 2 {
		t.Errorf("queue = %d, want 2", m.QueueLength())
	}
	h := tb.Release(m, 1, 5)
	if !h.Direct || h.Next != 2 {
		t.Fatalf("handoff to %d, want thread 2 (FIFO)", h.Next)
	}
	if m.Owner() != 2 {
		t.Error("ownership not transferred")
	}
	h = tb.Release(m, 2, 6)
	if !h.Direct || h.Next != 3 {
		t.Fatalf("second handoff to %d, want 3", h.Next)
	}
	tb.Release(m, 3, 7)
	if m.Owner() != NoThread || m.QueueLength() != 0 {
		t.Error("monitor not clean after all releases")
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	tb.Acquire(m, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("release by non-owner did not panic")
		}
	}()
	tb.Release(m, 2, 1)
}

func TestTableTotals(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	a, b := tb.Create("a"), tb.Create("b")
	tb.Acquire(a, 1, 0)
	tb.Acquire(b, 1, 0)
	tb.Acquire(a, 2, 1) // contended
	if tb.TotalAcquisitions() != 3 {
		t.Errorf("total acquisitions = %d, want 3", tb.TotalAcquisitions())
	}
	if tb.TotalContentions() != 1 {
		t.Errorf("total contentions = %d, want 1", tb.TotalContentions())
	}
	if tb.Len() != 2 || tb.Get(0) != a || tb.Get(1) != b {
		t.Error("table indexing broken")
	}
	count := 0
	tb.ForEach(func(*Monitor) { count++ })
	if count != 2 {
		t.Error("ForEach visited wrong count")
	}
}

type recordingListener struct {
	acquires, contentions, handoffs, releases int
	lastWait, lastHold                        sim.Time
}

func (r *recordingListener) OnAcquire(m *Monitor, t ThreadID, contended bool, now sim.Time) {
	r.acquires++
	if contended {
		r.contentions++
	}
}
func (r *recordingListener) OnHandoff(m *Monitor, t ThreadID, waited sim.Time) {
	r.handoffs++
	r.lastWait = waited
}
func (r *recordingListener) OnRelease(m *Monitor, t ThreadID, held sim.Time) {
	r.releases++
	r.lastHold = held
}

func TestListenerEvents(t *testing.T) {
	rec := &recordingListener{}
	tb := NewTable(FIFO(), rec)
	m := tb.Create("observed")
	tb.Acquire(m, 1, 100)
	tb.Acquire(m, 2, 150) // blocks
	tb.Release(m, 1, 300) // hold 200, handoff; thread 2 waited 150
	if rec.acquires != 2 || rec.contentions != 1 {
		t.Errorf("listener acquires/contentions = %d/%d", rec.acquires, rec.contentions)
	}
	if rec.handoffs != 1 || rec.lastWait != 150 {
		t.Errorf("handoffs = %d wait = %v, want 1/150", rec.handoffs, rec.lastWait)
	}
	if rec.releases != 1 || rec.lastHold != 200 {
		t.Errorf("releases = %d hold = %v, want 1/200", rec.releases, rec.lastHold)
	}
}

// Property: mutual exclusion — replaying any random sequence of acquire
// and release requests, at most one thread owns the monitor, the owner is
// only ever changed by a release, and handoffs follow strict FIFO order.
func TestMutualExclusionProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewTable(FIFO(), nil)
		m := tb.Create("prop")
		const nThreads = 5
		// held tracks which threads think they hold or wait on the lock.
		state := make([]int, nThreads) // 0 = out, 1 = waiting, 2 = holding
		var fifo []ThreadID
		now := sim.Time(0)
		for _, op := range ops {
			now++
			tid := ThreadID(op % nThreads)
			if op%2 == 0 {
				if state[tid] != 0 {
					continue // already holding or waiting
				}
				if tb.Acquire(m, tid, now).Kind == Acquired {
					if m.Owner() != tid {
						return false
					}
					state[tid] = 2
				} else {
					state[tid] = 1
					fifo = append(fifo, tid)
				}
			} else {
				if state[tid] != 2 {
					continue
				}
				h := tb.Release(m, tid, now)
				state[tid] = 0
				if h.Direct {
					if len(fifo) == 0 || fifo[0] != h.Next {
						return false // FIFO violated
					}
					fifo = fifo[1:]
					state[h.Next] = 2
					if m.Owner() != h.Next {
						return false
					}
				} else if m.QueueLength() != 0 {
					return false
				}
			}
			// Invariant: exactly one holder iff owner set.
			holders := 0
			for _, s := range state {
				if s == 2 {
					holders++
				}
			}
			if holders > 1 {
				return false
			}
			if (m.Owner() == NoThread) != (holders == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: acquisitions == contentions + uncontended grants, and
// contentions never exceed acquisitions.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewTable(FIFO(), nil)
		m := tb.Create("ctr")
		held := map[ThreadID]bool{}
		waiting := map[ThreadID]bool{}
		now := sim.Time(0)
		for _, op := range ops {
			now++
			tid := ThreadID(op % 4)
			if op%2 == 0 && !held[tid] && !waiting[tid] {
				if tb.Acquire(m, tid, now).Kind == Acquired {
					held[tid] = true
				} else {
					waiting[tid] = true
				}
			} else if held[tid] && m.Owner() == tid {
				h := tb.Release(m, tid, now)
				delete(held, tid)
				if h.Direct {
					held[h.Next] = true
					delete(waiting, h.Next)
				}
			}
		}
		return m.Contentions() <= m.Acquisitions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
