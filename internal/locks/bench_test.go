package locks

import (
	"testing"

	"javasim/internal/sim"
)

// BenchmarkUncontendedAcquireRelease measures the monitor fast path.
func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("bench")
	for i := 0; i < b.N; i++ {
		tb.Acquire(m, 1, 0)
		tb.Release(m, 1, 1)
	}
}

// BenchmarkContendedHandoff measures the slow path: a blocked waiter
// receiving ownership on every release.
func BenchmarkContendedHandoff(b *testing.B) {
	tb := NewTable(FIFO(), nil)
	m := tb.Create("bench")
	tb.Acquire(m, 0, 0)
	for i := 0; i < b.N; i++ {
		next := ThreadID(i%7 + 1)
		tb.Acquire(m, next, 0) // blocks
		owner := m.Owner()
		tb.Release(m, owner, 1) // hands off to next
	}
}

// BenchmarkTableContended measures the contended acquire/release hot path
// under every registered policy: eight threads hammering one monitor, the
// released thread immediately re-attempting. A regression here is
// policy-dispatch overhead leaking into the simulator's hottest loop.
func BenchmarkTableContended(b *testing.B) {
	for _, name := range Policies.Names() {
		b.Run(name, func(b *testing.B) {
			newPolicy, err := Policies.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			p := newPolicy()
			tb := NewTable(p, nil)
			m := tb.Create("bench")
			const threads = 8
			now := sim.Time(0)
			// settle drives one attempt to rest: spins retry immediately,
			// parks stay parked until a release wakes them.
			settle := func(t ThreadID) {
				if tb.Acquire(m, t, now).Kind == Spinning {
					tb.Retry(m, t, now)
				}
			}
			for t := ThreadID(0); t < threads; t++ {
				settle(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				owner := m.Owner()
				h := tb.Release(m, owner, now)
				for _, w := range h.Retry {
					tb.Retry(m, w.ID, now)
				}
				if m.Owner() == NoThread {
					// Everyone parked elsewhere drained; restart the herd.
					settle(owner)
					continue
				}
				settle(owner) // the released thread circles back
			}
		})
	}
}
