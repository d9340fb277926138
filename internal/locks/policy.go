package locks

import (
	"javasim/internal/registry"
	"javasim/internal/sim"
)

// The contended-path discipline — what happens when an acquisition finds
// the monitor held, and who gets it on release — is a Policy. The seed
// behavior (inflate, park FIFO, hand off directly) is the "fifo" policy;
// the alternatives model the mitigation space the paper's fixed JVM could
// not explore: competitive handoff ("barging"), bounded busy-waiting
// ("spin-then-park"), and Dice & Kogan-style concurrency restriction
// ("restricted"). Policies are stateful and per-Table: build one per VM
// from the Policies catalog, never share an instance across tables.
//
// Two counters diverge once the discipline is swappable. The Listener's
// contended flag reports the raw truth — the attempt found the monitor
// unavailable — while Monitor.Contentions models the DTrace
// monitor-contended-enter probe, which fires only when the acquiring
// thread itself executes the monitor's contended-enter path (joins the
// entry queue from a running attempt). A successful spin never executes
// it, and neither does a thread the restricted policy parks at its
// admission gate: gated threads are later promoted into the entry queue
// or granted the monitor *by the releasing thread*, without ever running
// the enter path themselves. Under the default fifo policy the probe and
// the raw flag coincide exactly, preserving the paper's Figure 1b
// semantics.

// Registry names of the built-in policies.
const (
	// PolicyFIFO parks contenders on a FIFO entry queue and transfers
	// ownership directly on release — the seed (HotSpot-style) behavior.
	PolicyFIFO = "fifo"
	// PolicyBarging frees the monitor on release and wakes every waiter to
	// re-compete: whoever dispatches first wins, latecomers may barge.
	PolicyBarging = "barging"
	// PolicySpinThenPark busy-waits a fixed virtual-time budget before
	// parking; the spin is charged as CPU, not as blocked time.
	PolicySpinThenPark = "spin-then-park"
	// PolicyRestricted caps the threads circulating over a monitor,
	// parking the excess at an admission gate upstream of the contended
	// slow path (Dice & Kogan, "Avoiding Scalability Collapse by
	// Restricting Concurrency").
	PolicyRestricted = "restricted"
)

// DefaultSpinBudget is the spin-then-park policy's busy-wait budget: a few
// multiples of the workloads' typical critical-section lengths, so short
// holds are absorbed without parking while deep queues still park.
const DefaultSpinBudget = 2 * sim.Microsecond

// DefaultRestrictedCap is the restricted policy's circulating-set size
// (owner plus entry-queue waiters). Four matches the paper's smallest
// sweep point, so low-thread runs behave exactly like fifo.
const DefaultRestrictedCap = 4

// Policy is the contended-path discipline of one monitor table. Contended
// handles an acquisition attempt that found the monitor unavailable and
// says how the thread proceeds; Released decides who (if anyone) gets the
// monitor after its outermost release. Implementations run inside the
// single-threaded simulation and must be deterministic.
type Policy interface {
	// Name returns the discipline's canonical name (for the built-ins,
	// their registry name). A tuned variant registered under a custom key
	// still reports its family name here — the name a run actually
	// selected travels in the config string and vm.Result.LockPolicy.
	Name() string
	// Contended handles thread t finding m held (or gated). retry is true
	// when this is a re-attempt after a spin or a competitive wakeup, so
	// the policy can avoid double-counting the contention probe.
	Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome
	// Released decides the fate of m after its outermost release; the
	// monitor is unowned when called. A Direct handoff grants Next
	// ownership; every Retry waiter must be woken to re-attempt via
	// Table.Retry.
	Released(tb *Table, m *Monitor, now sim.Time) Handoff
}

// --- Registry ----------------------------------------------------------

// Policies is the lock-policy catalog. Entries are factories that must
// return a fresh instance per call — policies hold per-table state. The
// empty name selects fifo.
var Policies = registry.New[func() Policy]("lock policy", PolicyFIFO, nil)

func init() {
	Policies.MustRegister(PolicyFIFO, func() Policy { return FIFO() })
	Policies.MustRegister(PolicyBarging, func() Policy { return Barging() })
	Policies.MustRegister(PolicySpinThenPark, func() Policy { return SpinThenPark(DefaultSpinBudget) })
	Policies.MustRegister(PolicyRestricted, func() Policy { return Restricted(DefaultRestrictedCap) })
}

// --- fifo --------------------------------------------------------------

// FIFO returns the default discipline: contenders park on a FIFO entry
// queue and the head waiter receives ownership directly on release.
func FIFO() Policy { return fifoPolicy{} }

type fifoPolicy struct{}

func (fifoPolicy) Name() string { return PolicyFIFO }

func (fifoPolicy) Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome {
	m.contentions++
	m.enqueue(t, now)
	return Outcome{Kind: Parked, Contended: true}
}

func (fifoPolicy) Released(tb *Table, m *Monitor, now sim.Time) Handoff {
	if id, since, ok := m.dequeue(); ok {
		return Handoff{Direct: true, Next: id, Since: since}
	}
	return Handoff{}
}

// --- barging -----------------------------------------------------------

// Barging returns the competitive discipline: release leaves the monitor
// free and wakes every waiter; whoever dispatches first re-acquires, and
// a thread arriving between the release and the wakeups may barge past
// the whole queue. Unfair, but with no handoff latency.
func Barging() Policy { return bargingPolicy{} }

type bargingPolicy struct{}

func (bargingPolicy) Name() string { return PolicyBarging }

func (bargingPolicy) Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome {
	since := now
	if retry {
		// A woken thread that lost the race re-parks; its wait began at
		// the original attempt, and the probe already fired there. (The
		// Table deletes the retry record once this park resolves.)
		if s, ok := tb.retrySince[t]; ok {
			since = s
		}
	} else {
		m.contentions++
	}
	m.enqueue(t, since)
	return Outcome{Kind: Parked, Contended: !retry}
}

func (bargingPolicy) Released(tb *Table, m *Monitor, now sim.Time) Handoff {
	return Handoff{Retry: m.drain()}
}

// --- spin-then-park ----------------------------------------------------

// SpinThenPark returns a discipline that busy-waits up to budget of
// virtual time before parking. The spin is a CPU segment — it shows up as
// mutator time and delays safepoints by at most the budget — and a
// monitor freed during the spin is reserved for the earliest spinner at
// the instant of release, never entering the contended slow path:
// successful spins do not count as contentions. The budget doubles as
// the poll granularity — a reserved spinner starts its critical section
// at spin end, up to the remaining budget after the release — so larger
// budgets absorb more parks but respond to releases more coarsely.
// Parked threads hand off FIFO like the default policy.
func SpinThenPark(budget sim.Time) Policy {
	if budget <= 0 {
		budget = DefaultSpinBudget
	}
	return &spinThenParkPolicy{budget: budget}
}

type spinThenParkPolicy struct {
	budget sim.Time
}

func (p *spinThenParkPolicy) Name() string { return PolicySpinThenPark }

func (p *spinThenParkPolicy) Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome {
	if !retry {
		return Outcome{Kind: Spinning, Spin: p.budget}
	}
	// Spin exhausted: enter the contended slow path. The wait is measured
	// from the park — the spin was CPU, not blocking.
	m.contentions++
	m.enqueue(t, now)
	return Outcome{Kind: Parked, Contended: true}
}

func (p *spinThenParkPolicy) Released(tb *Table, m *Monitor, now sim.Time) Handoff {
	return fifoPolicy{}.Released(tb, m, now)
}

// --- restricted --------------------------------------------------------

// Restricted returns the concurrency-restricting discipline: at most cap
// threads circulate over a monitor (the owner plus its entry-queue
// waiters); the excess parks at an admission gate upstream of the
// contended slow path, so gated threads never fire the contention probe.
// Admission is FIFO through the gate, so every thread keeps making
// progress; releases backfill the entry queue from the gate as the
// circulating set drains.
func Restricted(cap int) Policy {
	if cap < 1 {
		cap = DefaultRestrictedCap
	}
	return &restrictedPolicy{cap: cap, gates: make(map[*Monitor][]Waiter)}
}

type restrictedPolicy struct {
	cap   int
	gates map[*Monitor][]Waiter // admission gate, FIFO
}

func (p *restrictedPolicy) Name() string { return PolicyRestricted }

func (p *restrictedPolicy) Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome {
	// Circulating set: the owner plus the entry-queue waiters.
	if 1+m.QueueLength() < p.cap {
		m.contentions++
		m.enqueue(t, now)
		return Outcome{Kind: Parked, Contended: true}
	}
	// Gated: set aside without executing the contended slow path, so no
	// probe and no ContentionCost — the mechanism behind restricted's
	// goodput retention under overload.
	p.gates[m] = append(p.gates[m], Waiter{ID: t, Since: now})
	return Outcome{Kind: Parked}
}

func (p *restrictedPolicy) Released(tb *Table, m *Monitor, now sim.Time) Handoff {
	h := Handoff{}
	gate := p.gates[m]
	if id, since, ok := m.dequeue(); ok {
		h = Handoff{Direct: true, Next: id, Since: since}
	} else if len(gate) > 0 {
		// Entry queue empty but threads gated: grant the gate head
		// directly — it never re-attempts, so no contention fires.
		h = Handoff{Direct: true, Next: gate[0].ID, Since: gate[0].Since}
		gate = gate[1:]
	}
	// Backfill the circulating set from the gate. Admitted threads stay
	// parked — they just wait in the entry queue now, first in line for
	// the following releases. The promotion is performed here by the
	// releasing thread, so it does not fire the contended-enter probe:
	// the gated thread never re-executes the enter path (the mechanism
	// behind restricted's flat Figure 1b curve).
	circ := 0
	if h.Direct {
		circ = 1
	}
	for circ+m.QueueLength() < p.cap && len(gate) > 0 {
		m.enqueue(gate[0].ID, gate[0].Since)
		gate = gate[1:]
	}
	p.gates[m] = gate
	return h
}
