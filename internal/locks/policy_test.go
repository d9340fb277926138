package locks

import (
	"testing"

	"javasim/internal/sim"
)

func mustPolicy(t testing.TB, name string) Policy {
	t.Helper()
	newPolicy, err := Policies.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return newPolicy()
}

// TestPolicyRegistry checks that catalog factories mint fresh instances —
// policies hold per-table state. The naming rules every catalog shares
// are checked once, in the root package's catalog table test.
func TestPolicyRegistry(t *testing.T) {
	a := mustPolicy(t, PolicyRestricted)
	b := mustPolicy(t, PolicyRestricted)
	if a == b {
		t.Error("the restricted factory returned a shared instance")
	}
}

func TestBargingWakesAllAndFirstRetryWins(t *testing.T) {
	tb := NewTable(mustPolicy(t, PolicyBarging), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	if got := tb.Acquire(m, 2, 10); got.Kind != Parked {
		t.Fatalf("contender outcome %v, want Parked", got.Kind)
	}
	tb.Acquire(m, 3, 20)
	if m.Contentions() != 2 {
		t.Fatalf("contentions = %d, want 2", m.Contentions())
	}

	h := tb.Release(m, 1, 100)
	if h.Direct {
		t.Fatal("barging release handed off directly")
	}
	if len(h.Retry) != 2 || h.Retry[0].ID != 2 || h.Retry[1].ID != 3 {
		t.Fatalf("retry set = %v, want threads 2 and 3", h.Retry)
	}
	if m.Owner() != NoThread {
		t.Fatal("monitor not free after barging release")
	}

	// A latecomer can barge past the whole woken set.
	if got := tb.Acquire(m, 4, 101); got.Kind != Acquired {
		t.Fatalf("barging latecomer outcome %v, want Acquired", got.Kind)
	}
	// The woken threads lose the race and re-park without a fresh
	// contention count.
	if got := tb.Retry(m, 2, 102); got.Kind != Parked {
		t.Fatalf("losing retry outcome %v, want Parked", got.Kind)
	}
	tb.Retry(m, 3, 103)
	if m.Contentions() != 2 {
		t.Errorf("contentions = %d after re-parks, want 2", m.Contentions())
	}

	// Next release wakes both again; the first retry wins the free monitor.
	h = tb.Release(m, 4, 200)
	if len(h.Retry) != 2 {
		t.Fatalf("retry set = %v, want 2 waiters", h.Retry)
	}
	if got := tb.Retry(m, h.Retry[0].ID, 201); got.Kind != Acquired {
		t.Fatalf("first retry outcome %v, want Acquired", got.Kind)
	}
	if m.Owner() != h.Retry[0].ID {
		t.Errorf("owner = %d, want %d", m.Owner(), h.Retry[0].ID)
	}
}

func TestBargingHandoffListenerWait(t *testing.T) {
	rec := &recordingListener{}
	tb := NewTable(mustPolicy(t, PolicyBarging), rec)
	m := tb.Create("observed")
	tb.Acquire(m, 1, 100)
	tb.Acquire(m, 2, 150) // raw contended attempt
	h := tb.Release(m, 1, 300)
	tb.Retry(m, h.Retry[0].ID, 310)
	if rec.contentions != 1 {
		t.Errorf("listener contentions = %d, want 1", rec.contentions)
	}
	// The grant-on-retry is a handoff; the wait spans from the original
	// attempt at t=150 to the winning dispatch at t=310.
	if rec.handoffs != 1 || rec.lastWait != 160 {
		t.Errorf("handoffs = %d wait = %v, want 1/160", rec.handoffs, rec.lastWait)
	}
}

func TestSpinThenParkSuccessfulSpin(t *testing.T) {
	tb := NewTable(SpinThenPark(1*sim.Microsecond), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	got := tb.Acquire(m, 2, 10)
	if got.Kind != Spinning || got.Spin != 1*sim.Microsecond {
		t.Fatalf("outcome = %+v, want Spinning with 1µs budget", got)
	}
	// Owner releases during the spin window: nobody is parked, so the
	// monitor is reserved for the live busy-waiter at the instant of
	// release — it does not sit free until the spin quantum expires.
	if h := tb.Release(m, 1, 200); h.Direct || len(h.Retry) != 0 {
		t.Fatal("release with only a spinner reported a handoff")
	}
	if m.Owner() != 2 {
		t.Fatalf("owner = %d after release, want reservation for spinner 2", m.Owner())
	}
	// A latecomer cannot steal a reserved monitor.
	if got := tb.Acquire(m, 3, 500); got.Kind != Spinning {
		t.Fatalf("latecomer outcome %v, want Spinning against the reserved owner", got.Kind)
	}
	// The spin retry confirms the reservation without firing the probe.
	if got := tb.Retry(m, 2, 1010); got.Kind != Acquired {
		t.Fatalf("retry outcome %v, want Acquired", got.Kind)
	}
	if m.Owner() != 2 {
		t.Errorf("owner = %d, want 2", m.Owner())
	}
	if m.Contentions() != 0 {
		t.Errorf("contentions = %d, want 0 — the spin succeeded", m.Contentions())
	}
}

func TestSpinThenParkReservationOrder(t *testing.T) {
	tb := NewTable(SpinThenPark(1*sim.Microsecond), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	tb.Acquire(m, 2, 10) // spinning since t=10
	tb.Acquire(m, 3, 20) // spinning since t=20
	tb.Release(m, 1, 100)
	if m.Owner() != 2 {
		t.Fatalf("owner = %d, want earliest spinner 2", m.Owner())
	}
	// The winner's retry confirms the reservation; the loser's parks.
	if got := tb.Retry(m, 2, 1010); got.Kind != Acquired {
		t.Fatalf("winning spinner outcome %v, want Acquired", got.Kind)
	}
	if got := tb.Retry(m, 3, 1020); got.Kind != Parked {
		t.Fatalf("losing spinner outcome %v, want Parked", got.Kind)
	}
	if m.Contentions() != 1 {
		t.Errorf("contentions = %d, want 1 (only the failed spin parked)", m.Contentions())
	}
	// The reserved owner's release now hands off to the parked thread.
	h := tb.Release(m, 2, 2000)
	if !h.Direct || h.Next != 3 {
		t.Fatalf("handoff %+v, want direct to 3", h)
	}
}

func TestSpinThenParkFailedSpinParksOnce(t *testing.T) {
	tb := NewTable(SpinThenPark(1*sim.Microsecond), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	if got := tb.Acquire(m, 2, 10); got.Kind != Spinning {
		t.Fatalf("outcome %v, want Spinning", got.Kind)
	}
	// Spin exhausted with the owner still inside: the retry parks and the
	// contended-enter probe fires exactly once.
	if got := tb.Retry(m, 2, 1010); got.Kind != Parked {
		t.Fatalf("retry outcome %v, want Parked", got.Kind)
	}
	if m.Contentions() != 1 {
		t.Errorf("contentions = %d, want 1", m.Contentions())
	}
	// Parked spinners hand off FIFO like the default policy; the wait is
	// measured from the park, not the first attempt — spin time is CPU.
	rec := &recordingListener{}
	tb.listener = rec
	h := tb.Release(m, 1, 1500)
	if !h.Direct || h.Next != 2 {
		t.Fatalf("handoff = %+v, want direct to 2", h)
	}
	if rec.lastWait != 490 {
		t.Errorf("waited = %v, want 490 (since the park at t=1010)", rec.lastWait)
	}
}

// respinPolicy is a custom discipline that keeps spinning on retries —
// the adaptive-spinning shape external registrations are allowed to take.
type respinPolicy struct{}

func (respinPolicy) Name() string { return "respin" }

func (respinPolicy) Contended(tb *Table, m *Monitor, t ThreadID, now sim.Time, retry bool) Outcome {
	return Outcome{Kind: Spinning, Spin: 1 * sim.Microsecond}
}

func (respinPolicy) Released(tb *Table, m *Monitor, now sim.Time) Handoff {
	return Handoff{}
}

// TestRespinStaysReservationEligible pins the Retry path's spinner
// bookkeeping: a thread whose policy spins again on retry must remain
// reservation-eligible, or a release during its second spin window would
// leave the monitor free for a latecomer to steal.
func TestRespinStaysReservationEligible(t *testing.T) {
	tb := NewTable(respinPolicy{}, nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	if got := tb.Acquire(m, 2, 10); got.Kind != Spinning {
		t.Fatalf("outcome %v, want Spinning", got.Kind)
	}
	// First spin window expires with the owner still inside: spin again.
	if got := tb.Retry(m, 2, 1010); got.Kind != Spinning {
		t.Fatalf("retry outcome %v, want Spinning", got.Kind)
	}
	// A release during the second spin window still reserves for the
	// live busy-waiter.
	tb.Release(m, 1, 1500)
	if m.Owner() != 2 {
		t.Fatalf("owner = %d after release, want re-spinning thread 2", m.Owner())
	}
	if got := tb.Retry(m, 2, 2010); got.Kind != Acquired {
		t.Fatalf("final retry outcome %v, want Acquired", got.Kind)
	}
}

func TestRestrictedGatesExcessThreads(t *testing.T) {
	tb := NewTable(Restricted(2), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	// Thread 2 joins the circulating set (owner + 1 waiter = cap).
	if got := tb.Acquire(m, 2, 10); got.Kind != Parked {
		t.Fatalf("outcome %v, want Parked", got.Kind)
	}
	// Threads 3 and 4 exceed the cap: parked at the admission gate, no
	// contended-enter probe.
	tb.Acquire(m, 3, 20)
	tb.Acquire(m, 4, 30)
	if m.Contentions() != 1 {
		t.Fatalf("contentions = %d, want 1 — gate parks never fire the probe", m.Contentions())
	}
	if m.QueueLength() != 1 {
		t.Fatalf("entry queue = %d, want 1 (threads 3,4 gated)", m.QueueLength())
	}

	// Admission is FIFO: each release hands to the entry head and
	// backfills from the gate.
	for i, want := range []ThreadID{2, 3, 4} {
		h := tb.Release(m, m.Owner(), sim.Time(100*(i+1)))
		if !h.Direct || h.Next != want {
			t.Fatalf("release %d: handoff %+v, want direct to %d", i, h, want)
		}
	}
	if h := tb.Release(m, 4, 400); h.Direct {
		t.Fatal("final release should free the monitor")
	}
	if m.Contentions() != 1 || m.Acquisitions() != 4 {
		t.Errorf("counters %d/%d, want contentions 1 of 4 acquisitions",
			m.Contentions(), m.Acquisitions())
	}
}

func TestRestrictedCapOneNeverFiresProbe(t *testing.T) {
	tb := NewTable(Restricted(1), nil)
	m := tb.Create("hot")
	tb.Acquire(m, 1, 0)
	tb.Acquire(m, 2, 1)
	tb.Acquire(m, 3, 2)
	if m.Contentions() != 0 {
		t.Fatalf("contentions = %d, want 0 under cap 1", m.Contentions())
	}
	// With an empty entry queue the gate head is granted directly.
	h := tb.Release(m, 1, 10)
	if !h.Direct || h.Next != 2 {
		t.Fatalf("handoff %+v, want direct grant to gate head 2", h)
	}
	h = tb.Release(m, 2, 20)
	if !h.Direct || h.Next != 3 {
		t.Fatalf("handoff %+v, want direct grant to 3", h)
	}
	tb.Release(m, 3, 30)
	if m.Owner() != NoThread || m.Contentions() != 0 {
		t.Error("monitor not clean, or probe fired, after gated cycle")
	}
}

func TestPolicyNameSurfacesOnTable(t *testing.T) {
	if got := NewTable(FIFO(), nil).PolicyName(); got != PolicyFIFO {
		t.Errorf("default table policy = %q, want fifo", got)
	}
	if got := NewTable(Restricted(4), nil).PolicyName(); got != PolicyRestricted {
		t.Errorf("table policy = %q, want restricted", got)
	}
}

// TestContendedFlagTracksProbe verifies Outcome.Contended mirrors the
// contention probe discipline by discipline: fifo fires it on every park,
// restricted only for the circulating set (gated threads are set aside
// without the slow path), and barging only on the first park of an
// attempt, not the re-park after a lost race.
func TestContendedFlagTracksProbe(t *testing.T) {
	t.Run("fifo", func(t *testing.T) {
		tb := NewTable(mustPolicy(t, PolicyFIFO), nil)
		m := tb.Create("hot")
		tb.Acquire(m, 1, 0)
		if out := tb.Acquire(m, 2, 1); out.Kind != Parked || !out.Contended {
			t.Errorf("fifo park = %+v, want Parked+Contended", out)
		}
	})
	t.Run("restricted", func(t *testing.T) {
		tb := NewTable(Restricted(2), nil)
		m := tb.Create("hot")
		tb.Acquire(m, 1, 0)
		// Thread 2 joins the circulating set (owner + 1 < cap): probe fires.
		if out := tb.Acquire(m, 2, 1); out.Kind != Parked || !out.Contended {
			t.Errorf("circulating park = %+v, want Parked+Contended", out)
		}
		// Thread 3 is gated: parked without the probe, so no charge.
		if out := tb.Acquire(m, 3, 2); out.Kind != Parked || out.Contended {
			t.Errorf("gated park = %+v, want Parked without Contended", out)
		}
		if got := m.Contentions(); got != 1 {
			t.Errorf("contentions = %d, want 1 (the gate never probes)", got)
		}
	})
	t.Run("barging re-park", func(t *testing.T) {
		tb := NewTable(mustPolicy(t, PolicyBarging), nil)
		m := tb.Create("hot")
		tb.Acquire(m, 1, 0)
		if out := tb.Acquire(m, 2, 1); !out.Contended {
			t.Errorf("first park = %+v, want Contended", out)
		}
		tb.Acquire(m, 3, 2)
		// Release wakes both; thread 3 wins the race, thread 2's retry
		// re-parks — the probe (and its cost) already fired at first park.
		tb.Release(m, 1, 3)
		tb.Retry(m, 3, 4)
		if out := tb.Retry(m, 2, 5); out.Kind != Parked || out.Contended {
			t.Errorf("lost-race re-park = %+v, want Parked without Contended", out)
		}
	})
}
