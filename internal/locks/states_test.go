package locks

import (
	"testing"
	"testing/quick"
)

func TestBiasFastPath(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	if m.State() != StateBiasable {
		t.Fatalf("fresh monitor state %v, want biasable", m.State())
	}
	// The first thread biases the lock and keeps the fast path.
	for i := 0; i < 10; i++ {
		tb.Acquire(m, 1, 0)
		tb.Release(m, 1, 1)
	}
	if m.State() != StateBiased {
		t.Errorf("state %v after single-thread use, want biased", m.State())
	}
	if m.BiasedAcquisitions() != 10 {
		t.Errorf("biased acquisitions %d, want 10", m.BiasedAcquisitions())
	}
	if m.Revocations() != 0 {
		t.Errorf("revocations %d without a second thread", m.Revocations())
	}
}

func TestBiasRevocationOnSecondThread(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	tb.Acquire(m, 1, 0)
	tb.Release(m, 1, 1)
	// Uncontended acquisition by a different thread: revoke, go thin.
	tb.Acquire(m, 2, 2)
	if m.State() != StateThin {
		t.Errorf("state %v, want thin", m.State())
	}
	if m.Revocations() != 1 {
		t.Errorf("revocations %d, want 1", m.Revocations())
	}
	tb.Release(m, 2, 3)
	// Further alternation stays thin while uncontended.
	tb.Acquire(m, 1, 4)
	tb.Release(m, 1, 5)
	if m.State() != StateThin {
		t.Errorf("state %v after alternation, want thin", m.State())
	}
	if m.BiasedAcquisitions() != 1 {
		t.Errorf("biased acquisitions %d, want 1 (only the first)", m.BiasedAcquisitions())
	}
}

func TestInflationOnContention(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	tb.Acquire(m, 1, 0)
	tb.Acquire(m, 2, 1) // contends while held
	if m.State() != StateInflated {
		t.Errorf("state %v, want inflated", m.State())
	}
	// Escalate-only: releasing everything never deflates.
	tb.Release(m, 1, 2)
	tb.Release(m, 2, 3)
	tb.Acquire(m, 1, 4)
	tb.Release(m, 1, 5)
	if m.State() != StateInflated {
		t.Error("monitor deflated — HotSpot 7 semantics are escalate-only")
	}
}

func TestBiasedContentionRevokesAndInflates(t *testing.T) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("lock")
	tb.Acquire(m, 1, 0) // biased to 1, held
	tb.Acquire(m, 2, 1) // revocation + inflation in one step
	if m.State() != StateInflated {
		t.Errorf("state %v, want inflated", m.State())
	}
	if m.Revocations() != 1 {
		t.Errorf("revocations %d, want 1", m.Revocations())
	}
}

// Property: lock states only escalate (biasable <= biased <= thin <=
// inflated in acquisition order), and at most one revocation per monitor.
func TestStateEscalationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewTable(FIFO(), nil)
		m := tb.Create("prop")
		held := map[ThreadID]bool{}
		waiting := map[ThreadID]bool{}
		prev := m.State()
		for _, op := range ops {
			tid := ThreadID(op % 4)
			if op%2 == 0 && !held[tid] && !waiting[tid] {
				if tb.Acquire(m, tid, 0).Kind == Acquired {
					held[tid] = true
				} else {
					waiting[tid] = true
				}
			} else if held[tid] && m.Owner() == tid {
				h := tb.Release(m, tid, 1)
				delete(held, tid)
				if h.Direct {
					held[h.Next] = true
					delete(waiting, h.Next)
				}
			}
			if m.State() < prev {
				return false // deflation
			}
			prev = m.State()
		}
		return m.Revocations() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
