package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// The event pool's contract: records recycle on fire and on cancel, a
// recycled record never carries a stale callback into its next life, and
// heavy schedule/cancel churn leaves execution order and the Executed
// count exactly as an unpooled kernel would.

func TestEventPoolRecyclesOnFire(t *testing.T) {
	s := New()
	ev1 := s.Schedule(1, func() {})
	s.Run()
	ev2 := s.Schedule(1, func() {})
	if ev1 != ev2 {
		t.Error("fired event record was not reused by the next Schedule")
	}
	if ev2.Canceled() {
		t.Error("reused record reports Canceled")
	}
	s.Run()
}

func TestCanceledEventIsReusable(t *testing.T) {
	s := New()
	staleFired := false
	ev := s.Schedule(50, func() { staleFired = true })
	s.Cancel(ev)

	freshFired := 0
	ev2 := s.Schedule(10, func() { freshFired++ })
	if ev2 != ev {
		t.Fatal("canceled record was not reused by the next Schedule")
	}
	if ev2.Canceled() {
		t.Error("reused record still reports Canceled")
	}
	s.Run()
	if staleFired {
		t.Error("stale closure of the canceled incarnation fired")
	}
	if freshFired != 1 {
		t.Errorf("fresh incarnation fired %d times, want 1", freshFired)
	}
}

func TestRecycledEventNeverFiresStaleClosure(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(1, func() { order = append(order, 1) })
	s.Run() // record now pooled with closure cleared

	s.Schedule(1, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("fired %v, want [1 2]", order)
	}
}

type counter struct{ n int }

func (c *counter) fire() { c.n++ }

func TestScheduleFiresPreBoundFunc(t *testing.T) {
	s := New()
	c := &counter{}
	fire := c.fire
	s.Schedule(5, fire)
	s.Schedule(7, fire)
	ev := s.Schedule(9, fire)
	s.Cancel(ev)
	s.Run()
	if c.n != 2 {
		t.Errorf("fired %d times, want 2", c.n)
	}
	if s.Now() != 7 {
		t.Errorf("Now = %v, want 7", s.Now())
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil function")
		}
	}()
	New().Schedule(1, nil)
}

func TestNextEventAt(t *testing.T) {
	s := New()
	if _, ok := s.NextEventAt(); ok {
		t.Error("NextEventAt ok on empty queue")
	}
	s.Schedule(30, func() {})
	ev := s.Schedule(10, func() {})
	if at, ok := s.NextEventAt(); !ok || at != 10 {
		t.Errorf("NextEventAt = %v,%v, want 10,true", at, ok)
	}
	s.Cancel(ev)
	if at, ok := s.NextEventAt(); !ok || at != 30 {
		t.Errorf("NextEventAt after cancel = %v,%v, want 30,true", at, ok)
	}
	s.Run()
}

// TestPoolChurnDeterminismProperty drives a pseudo-random interleaving of
// schedule, cancel, and step operations and checks the kernel against a
// simple reference model: every non-canceled event fires exactly once, in
// (time, scheduling-order) order, and Executed matches. Recycled records
// flowing back into the live set must not perturb any of that.
func TestPoolChurnDeterminismProperty(t *testing.T) {
	type pending struct {
		ev    *Event
		label int
	}
	f := func(ops []uint8) bool {
		s := New()
		var fired []int
		var live []pending
		var expect []int // labels in scheduling order, firing time encoded below
		times := map[int]Time{}
		label := 0
		for _, op := range ops {
			switch {
			case op%4 == 0 && len(live) > 0:
				idx := int(op/4) % len(live)
				s.Cancel(live[idx].ev)
				// Drop from the reference model too.
				for i, l := range expect {
					if l == live[idx].label {
						expect = append(expect[:i], expect[i+1:]...)
						break
					}
				}
				live = append(live[:idx], live[idx+1:]...)
			case op%4 == 1:
				// Fire the earliest pending event, retiring it everywhere.
				if s.Step() {
					done := fired[len(fired)-1]
					for i, l := range expect {
						if l == done {
							expect = append(expect[:i], expect[i+1:]...)
							break
						}
					}
					for i := range live {
						if live[i].label == done {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			default:
				label++
				l := label
				delay := Time(op % 32)
				times[l] = s.Now() + delay
				ev := s.Schedule(delay, func() { fired = append(fired, l) })
				live = append(live, pending{ev, l})
				expect = append(expect, l)
			}
		}
		s.Run()
		// Reference order: stable sort of the remaining expected labels by
		// absolute firing time (stability = FIFO tie-break by seq).
		sort.SliceStable(expect, func(i, j int) bool {
			return times[expect[i]] < times[expect[j]]
		})
		// Everything scheduled and never canceled must appear in fired, and
		// the tail of fired (post-churn) must equal the reference order.
		if len(fired) < len(expect) {
			return false
		}
		tail := fired[len(fired)-len(expect):]
		for i := range expect {
			if tail[i] != expect[i] {
				return false
			}
		}
		return s.Executed() == uint64(len(fired))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPoolSteadyStateAllocFree pins the tentpole property: a warm
// schedule/fire cycle through the pool allocates nothing.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	s := New()
	fire := (&counter{}).fire
	// Warm the pool and the queue's backing array.
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), fire)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(1, fire)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire cycle allocates %v objects/op, want 0", allocs)
	}
}
