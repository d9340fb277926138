// Package sim provides the deterministic discrete-event simulation kernel
// that every other subsystem in this repository runs on.
//
// The kernel models virtual time as int64 nanoseconds. Components schedule
// callbacks at future instants; the simulator executes them in timestamp
// order, breaking ties by scheduling order (FIFO), which keeps runs
// bit-for-bit reproducible for a fixed seed and configuration.
//
// Event records are pooled (see Event), so scheduling a func bound once
// (a method value or closure built at setup, not per event) makes the
// steady-state schedule/fire cycle perform zero heap allocations.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time values.
type Time int64

// Common durations, mirroring the time package but in virtual units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats the time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. The zero value is not useful; events are
// created through Simulator.Schedule or At.
//
// Event records are pooled: once an event fires or is canceled, its record
// returns to the simulator's free list and the next Schedule/At reuses it.
// An *Event reference is therefore live only until the event fires or is
// canceled — afterwards the pointer may describe a different, unrelated
// event. Holders must drop (or nil) their reference at that point and must
// never Cancel through a stale one.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // position in the heap, -1 once removed
	canceled bool
}

// At reports the virtual time at which the event fires.
func (e *Event) At() Time { return e.at }

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now     Time
	seq     uint64
	queue   quadHeap
	stopped bool
	// executed counts events that have fired, for diagnostics and tests.
	executed uint64
	// free is the event record pool: fired and canceled events land here
	// and the next Schedule/At reuses them, so a steady-state simulation
	// allocates no event records at all.
	free []*Event
}

// New returns an empty simulator positioned at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events that have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events waiting to fire.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Schedule registers fn to run delay nanoseconds from now. A zero delay is
// legal and fires after all events already scheduled for the current
// instant. Schedule panics if delay is negative: simulated components never
// travel backwards in time, so a negative delay is always a logic bug.
// With a pooled event record, scheduling a func bound once performs zero
// allocations.
func (s *Simulator) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return s.At(s.now+delay, fn)
}

// At registers fn to run at absolute time t, which must not be in the past.
// It takes a record from the pool (or allocates the first time) and stamps
// it with the firing time and the next sequence number.
func (s *Simulator) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.queue.Push(ev)
	return ev
}

// recycle clears a record's callback and returns it to the pool. The
// canceled flag is deliberately left as-is so Canceled() stays truthful
// until the record is reused (At resets it).
func (s *Simulator) recycle(ev *Event) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

// Cancel prevents a pending event from firing and recycles its record.
// Canceling an event that already fired within the current callback — or
// was already canceled and not yet reused — is a no-op, but once a record
// is reused by a later Schedule/At the stale pointer names the new event,
// so callers must drop references at fire/cancel time (see Event).
func (s *Simulator) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		return
	}
	ev.canceled = true
	s.queue.Remove(ev)
	s.recycle(ev)
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty or the simulator has been stopped.
func (s *Simulator) Step() bool {
	if s.stopped || s.queue.Len() == 0 {
		return false
	}
	ev := s.queue.Pop()
	if ev.at < s.now {
		panic("sim: event queue returned an event from the past")
	}
	s.now = ev.at
	s.executed++
	ev.fn()
	// Recycle after the callback so a Cancel of the just-fired event from
	// inside its own callback still sees index == -1 and no-ops.
	s.recycle(ev)
	return true
}

// NextEventAt returns the timestamp of the earliest pending event. ok is
// false when the queue is empty. Components use it to bound work they may
// perform without any other simulation activity intervening (the VM's
// op-run fusion window).
func (s *Simulator) NextEventAt() (Time, bool) {
	if s.queue.Len() == 0 {
		return 0, false
	}
	return s.queue.Peek().at, true
}

// Run fires events until the queue drains or Stop is called. It returns the
// final virtual time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunInterruptible fires events like Run, but calls check before every
// batch of `every` events and aborts with check's error as soon as it
// returns non-nil. It is the cancellation hook for long simulations: the
// VM points check at ctx.Err, so a canceled context stops the event loop
// within one batch instead of draining the whole run. An `every` of zero
// selects a batch size that keeps the check overhead negligible.
func (s *Simulator) RunInterruptible(every int, check func() error) (Time, error) {
	if every <= 0 {
		every = 4096
	}
	for {
		if err := check(); err != nil {
			return s.now, err
		}
		for i := 0; i < every; i++ {
			if !s.Step() {
				return s.now, nil
			}
		}
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline (if it is later than the last event). Events scheduled
// beyond the deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) Time {
	for !s.stopped && s.queue.Len() > 0 && s.queue.Peek().at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// Stop makes Run and Step return immediately. Pending events stay queued;
// calling Resume re-enables execution.
func (s *Simulator) Stop() { s.stopped = true }

// Resume clears the stopped flag set by Stop.
func (s *Simulator) Resume() { s.stopped = false }
