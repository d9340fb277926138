// Package locks models Java object monitors — the synchronization
// primitive behind synchronized blocks — the way HotSpot implements them:
// an uncontended fast path, and a contended slow path whose discipline is
// a pluggable Policy (see policy.go): the default parks the acquiring
// thread on a FIFO entry queue until the owner releases, alternatives
// barge, spin, or restrict concurrency.
//
// A contention instance, matching the DTrace monitor-contended-enter probe
// the paper counts in Figure 1b, is an acquisition attempt that enters the
// monitor's contended slow path; which attempts do is the policy's call.
package locks

import (
	"fmt"
	"slices"

	"javasim/internal/sim"
)

// ThreadID identifies a mutator thread. NoThread means "unowned".
type ThreadID int32

// NoThread is the owner of a free monitor.
const NoThread ThreadID = -1

// OutcomeKind classifies the result of an acquisition attempt. The zero
// value is deliberately invalid so a custom policy returning a
// forgotten-to-fill Outcome fails fast instead of reading as Acquired.
type OutcomeKind uint8

const (
	// outcomeInvalid is the zero value — a policy bug, rejected by the VM.
	outcomeInvalid OutcomeKind = iota
	// Acquired means the thread now owns the monitor (fast path or
	// reentrant).
	Acquired
	// Parked means the thread was queued by the policy and must not run
	// until woken: either handed ownership directly, or told to Retry.
	Parked
	// Spinning means the thread should busy-wait Outcome.Spin of CPU time
	// and then call Retry — the spin is compute, not blocking.
	Spinning
)

// String names the kind.
func (k OutcomeKind) String() string {
	switch k {
	case Acquired:
		return "acquired"
	case Parked:
		return "parked"
	case Spinning:
		return "spinning"
	default:
		return "invalid"
	}
}

// Outcome is the result of an acquisition attempt.
type Outcome struct {
	Kind OutcomeKind
	// Spin is the busy-wait budget when Kind == Spinning.
	Spin sim.Time
	// Contended marks a Parked outcome that fired the
	// monitor-contended-enter probe — the thread executed the contended
	// slow path (inflation, entry-queue CAS, park syscall) rather than
	// being set aside without a fight. The VM charges the workload's
	// ContentionCost on the wake-up that follows such a park, so
	// disciplines that bypass the slow path (restricted's admission gate,
	// spin-then-park's successful spins) dodge the charge along with the
	// probe.
	Contended bool
}

// Waiter is one parked thread together with the time its wait began.
type Waiter struct {
	ID    ThreadID
	Since sim.Time
}

// Handoff is the outcome of an outermost release. The zero value is
// inert — no handoff, nobody woken — so a custom policy cannot grant the
// monitor to thread 0 by returning a forgotten-to-fill Handoff.
type Handoff struct {
	// Direct marks a direct ownership transfer: Next received the monitor
	// and must be made runnable; Since is when its wait began.
	Direct bool
	Next   ThreadID
	Since  sim.Time
	// Retry lists threads to wake without ownership: each must re-attempt
	// via Table.Retry, and whichever dispatches first wins the monitor.
	Retry []Waiter
}

// LockState is the HotSpot-era synchronization state of a monitor. Every
// monitor starts biasable: the first acquiring thread biases it to itself
// and reacquires for free. A second thread revokes the bias (in the real
// JVM, a safepoint operation) and the monitor becomes a thin lock; the
// first contended acquisition inflates it to a full monitor with an entry
// queue. States only escalate — HotSpot 7 never deflated.
type LockState uint8

const (
	// StateBiasable is the initial state: no owner has been recorded.
	StateBiasable LockState = iota
	// StateBiased means one thread has acquired and reacquires cheaply.
	StateBiased
	// StateThin means multiple threads have used the lock, uncontended.
	StateThin
	// StateInflated means the lock has seen contention and carries a full
	// entry queue.
	StateInflated
)

// String names the state.
func (s LockState) String() string {
	switch s {
	case StateBiasable:
		return "biasable"
	case StateBiased:
		return "biased"
	case StateThin:
		return "thin"
	case StateInflated:
		return "inflated"
	default:
		return "invalid"
	}
}

// Listener observes lock events; the lockprof package implements it. A nil
// listener is legal and costs only a branch.
type Listener interface {
	// OnAcquire fires on every acquisition attempt. contended reports
	// whether the attempt found the monitor held by another thread.
	OnAcquire(m *Monitor, t ThreadID, contended bool, now sim.Time)
	// OnHandoff fires when a blocked thread is granted ownership,
	// reporting how long it waited.
	OnHandoff(m *Monitor, t ThreadID, waited sim.Time)
	// OnRelease fires when a thread fully releases the monitor, reporting
	// how long it held it.
	OnRelease(m *Monitor, t ThreadID, held sim.Time)
}

// Monitor is one Java object monitor.
type Monitor struct {
	id   int
	name string

	owner     ThreadID
	recursion int

	// waiters is the entry queue, in FIFO order.
	waiters []Waiter

	// spinners are threads busy-waiting on the monitor (Spinning
	// outcome), in attempt order. A release that leaves the monitor free
	// reserves it for the earliest spinner, so no latecomer can steal a
	// lock a live busy-waiter is polling for and the spinner never parks
	// a lock that freed mid-spin. The spin segment is the model's poll
	// granularity: the reserved spinner enters its critical section only
	// when its segment completes, so a reservation holds the monitor idle
	// until then — the remaining budget on an idle machine, budget plus
	// ready-queue delay when cores are oversubscribed. A real spinner
	// would enter within nanoseconds (or stop being a spinner once
	// descheduled); the coarseness is the price of fixed-length spin
	// segments, and it is also why spin-then-park degrades in the
	// oversubscribed regime, as real spin locks do.
	spinners []Waiter

	acquiredAt sim.Time

	// acquisitions and contentions are the two Figure 1 counters.
	acquisitions int64
	contentions  int64

	// Lock-state machine (biased -> thin -> inflated).
	state     LockState
	biasOwner ThreadID
	// biasedAcqs counts acquisitions served by the bias fast path;
	// revocations counts bias revocations (each a safepoint operation in
	// the real JVM).
	biasedAcqs  int64
	revocations int64
}

// State returns the monitor's synchronization state.
func (m *Monitor) State() LockState { return m.state }

// BiasedAcquisitions returns acquisitions served by the bias fast path.
func (m *Monitor) BiasedAcquisitions() int64 { return m.biasedAcqs }

// Revocations returns how many times a bias was revoked (0 or 1 per
// monitor in this model, matching HotSpot's escalate-only states).
func (m *Monitor) Revocations() int64 { return m.revocations }

// ID returns the monitor's table index.
func (m *Monitor) ID() int { return m.id }

// Name returns the human-readable label (e.g. "xalan.workQueue").
func (m *Monitor) Name() string { return m.name }

// Owner returns the current owner, or NoThread.
func (m *Monitor) Owner() ThreadID { return m.owner }

// QueueLength returns the number of threads parked on the entry queue.
func (m *Monitor) QueueLength() int { return len(m.waiters) }

// Acquisitions returns the total acquisition attempts (Figure 1a counter).
func (m *Monitor) Acquisitions() int64 { return m.acquisitions }

// Contentions returns the total contended attempts (Figure 1b counter).
func (m *Monitor) Contentions() int64 { return m.contentions }

// Table owns all monitors of one VM instance.
type Table struct {
	monitors []*Monitor
	listener Listener
	policy   Policy

	// retrySince records, per thread woken for a competitive retry, when
	// its wait began — for handoff accounting and re-parks.
	retrySince map[ThreadID]sim.Time
}

// NewTable returns an empty monitor table under contention policy p,
// reporting to listener (which may be nil). The policy instance must not
// be shared with another table.
func NewTable(p Policy, listener Listener) *Table {
	return &Table{listener: listener, policy: p, retrySince: make(map[ThreadID]sim.Time)}
}

// PolicyName returns the registry name of the table's contention policy.
func (tb *Table) PolicyName() string { return tb.policy.Name() }

// Create registers a new monitor with a diagnostic name.
func (tb *Table) Create(name string) *Monitor {
	m := &Monitor{id: len(tb.monitors), name: name, owner: NoThread, biasOwner: NoThread}
	tb.monitors = append(tb.monitors, m)
	return m
}

// Get returns monitor i.
func (tb *Table) Get(i int) *Monitor { return tb.monitors[i] }

// Len returns the number of monitors.
func (tb *Table) Len() int { return len(tb.monitors) }

// ForEach visits every monitor in creation order.
func (tb *Table) ForEach(fn func(*Monitor)) {
	for _, m := range tb.monitors {
		fn(m)
	}
}

// TotalAcquisitions sums acquisitions across all monitors.
func (tb *Table) TotalAcquisitions() int64 {
	var n int64
	for _, m := range tb.monitors {
		n += m.acquisitions
	}
	return n
}

// TotalContentions sums contentions across all monitors.
func (tb *Table) TotalContentions() int64 {
	var n int64
	for _, m := range tb.monitors {
		n += m.contentions
	}
	return n
}

// enqueue appends t to the entry queue with its wait start.
func (m *Monitor) enqueue(t ThreadID, since sim.Time) {
	m.waiters = append(m.waiters, Waiter{ID: t, Since: since})
}

// dequeue pops the entry-queue head and its wait start.
func (m *Monitor) dequeue() (ThreadID, sim.Time, bool) {
	if len(m.waiters) == 0 {
		return NoThread, 0, false
	}
	next := m.waiters[0]
	m.waiters = m.waiters[:copy(m.waiters, m.waiters[1:])]
	return next.ID, next.Since, true
}

// drain removes and returns every entry-queue waiter in FIFO order.
func (m *Monitor) drain() []Waiter {
	if len(m.waiters) == 0 {
		return nil
	}
	out := slices.Clone(m.waiters)
	m.waiters = m.waiters[:0]
	return out
}

// grant transfers ownership of a free monitor to t.
func (m *Monitor) grant(t ThreadID, now sim.Time) {
	m.owner = t
	m.recursion = 1
	m.acquiredAt = now
}

// removeSpinner deletes t from the spinner list, if present.
func (m *Monitor) removeSpinner(t ThreadID) {
	for i, s := range m.spinners {
		if s.ID == t {
			m.spinners = append(m.spinners[:i], m.spinners[i+1:]...)
			return
		}
	}
}

// Acquire attempts to take m for thread t at the current time. If the
// monitor is free it is granted immediately; if t already owns it the
// recursion count grows; otherwise the table's policy decides: a Parked
// outcome means the caller must deschedule t until woken (handed the
// monitor via Handoff.Next, or told to re-attempt via Handoff.Retry), and
// a Spinning outcome means the caller must burn Outcome.Spin of CPU time
// and then call Retry.
func (tb *Table) Acquire(m *Monitor, t ThreadID, now sim.Time) Outcome {
	m.acquisitions++
	// Advance the lock-state machine before the ownership decision.
	switch m.state {
	case StateBiasable:
		m.state = StateBiased
		m.biasOwner = t
		m.biasedAcqs++
	case StateBiased:
		if m.biasOwner == t {
			m.biasedAcqs++
		} else {
			m.revocations++
			m.state = StateThin
		}
	}
	switch m.owner {
	case NoThread:
		m.grant(t, now)
		if tb.listener != nil {
			tb.listener.OnAcquire(m, t, false, now)
		}
		return Outcome{Kind: Acquired}
	case t:
		m.recursion++
		if tb.listener != nil {
			tb.listener.OnAcquire(m, t, false, now)
		}
		return Outcome{Kind: Acquired}
	default:
		m.state = StateInflated
		// The listener sees the raw contended attempt; whether the
		// Figure 1b probe (m.contentions) fires is the policy's call.
		if tb.listener != nil {
			tb.listener.OnAcquire(m, t, true, now)
		}
		out := tb.policy.Contended(tb, m, t, now, false)
		if out.Kind == Spinning {
			m.spinners = append(m.spinners, Waiter{ID: t, Since: now})
		}
		return out
	}
}

// Retry re-attempts an acquisition whose first attempt returned Spinning
// (after the spin) or whose thread was woken through Handoff.Retry. It is
// not a new acquisition: no counter moves and the lock-state machine does
// not advance. A free monitor is granted, a monitor already reserved for
// t (released mid-spin) is confirmed, and a held one goes back to the
// policy with retry set.
func (tb *Table) Retry(m *Monitor, t ThreadID, now sim.Time) Outcome {
	m.removeSpinner(t)
	switch m.owner {
	case NoThread:
		m.grant(t, now)
		if since, ok := tb.retrySince[t]; ok {
			// The thread had parked: its eventual grant is a handoff.
			delete(tb.retrySince, t)
			if tb.listener != nil {
				tb.listener.OnHandoff(m, t, now-since)
			}
		}
		return Outcome{Kind: Acquired}
	case t:
		// The monitor was reserved for this spinner at release time.
		delete(tb.retrySince, t)
		return Outcome{Kind: Acquired}
	default:
		out := tb.policy.Contended(tb, m, t, now, true)
		switch out.Kind {
		case Spinning:
			// A policy may spin again on retry (adaptive spinning); the
			// thread stays reservation-eligible for its new spin window.
			m.spinners = append(m.spinners, Waiter{ID: t, Since: now})
		case Parked:
			// The retry resolved into a park: whatever queue the policy
			// chose now tracks the wait, so the retry record is dead.
			// (Centralized here so custom policies cannot leak entries.)
			delete(tb.retrySince, t)
		}
		return out
	}
}

// Release drops one recursion level of m held by t. On the outermost
// release the policy decides the handoff: Handoff.Next (if any) received
// ownership directly and must be made runnable; every Handoff.Retry
// waiter must be woken to re-attempt via Retry. Releasing a monitor not
// owned by t panics — that is a VM logic bug, the analogue of
// IllegalMonitorStateException.
func (tb *Table) Release(m *Monitor, t ThreadID, now sim.Time) Handoff {
	if m.owner != t {
		panic(fmt.Sprintf("locks: thread %d releasing monitor %q owned by %d", t, m.name, m.owner))
	}
	m.recursion--
	if m.recursion > 0 {
		return Handoff{}
	}
	if tb.listener != nil {
		tb.listener.OnRelease(m, t, now-m.acquiredAt)
	}
	m.owner = NoThread
	h := tb.policy.Released(tb, m, now)
	if h.Direct {
		m.grant(h.Next, now)
		delete(tb.retrySince, h.Next)
		if tb.listener != nil {
			tb.listener.OnHandoff(m, h.Next, now-h.Since)
		}
	} else if len(m.spinners) > 0 {
		// Nobody parked took the monitor: the earliest live busy-waiter
		// grabs it at the instant of release. Its Retry (at spin-segment
		// end) observes the reservation; no handoff event fires — a
		// successful spin never enters the contended slow path.
		m.grant(m.spinners[0].ID, now)
		m.spinners = m.spinners[1:]
	}
	for _, w := range h.Retry {
		tb.retrySince[w.ID] = w.Since
	}
	return h
}
