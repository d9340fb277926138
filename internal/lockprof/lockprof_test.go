package lockprof

import (
	"bytes"
	"strings"
	"testing"

	"javasim/internal/locks"
)

// drive runs a canned contention scenario through a monitor table wired to
// the profiler: thread 1 takes the lock, threads 2 and 3 contend, then the
// lock is handed down the queue.
func drive(p *Profiler) *locks.Table {
	tb := locks.NewTable(locks.FIFO(), p)
	m := tb.Create("hot.lock")
	cold := tb.Create("cold.lock")
	tb.Acquire(m, 1, 0)
	tb.Acquire(m, 2, 10)  // contends, waits until t=100
	tb.Acquire(m, 3, 20)  // contends, waits until t=150
	tb.Release(m, 1, 100) // held 100, handoff to 2
	tb.Release(m, 2, 150) // held 50, handoff to 3
	tb.Release(m, 3, 160) // held 10
	tb.Acquire(cold, 4, 200)
	tb.Release(cold, 4, 210)
	return tb
}

func TestProfilerCounts(t *testing.T) {
	p := New()
	drive(p)
	sum := p.Summary()
	if sum.Locks != 2 {
		t.Errorf("locks = %d, want 2", sum.Locks)
	}
	if sum.Acquisitions != 4 {
		t.Errorf("acquisitions = %d, want 4", sum.Acquisitions)
	}
	if sum.Contentions != 2 {
		t.Errorf("contentions = %d, want 2", sum.Contentions)
	}
	// Thread 2 waited 90, thread 3 waited 130.
	if sum.TotalWait != 220 {
		t.Errorf("total wait = %v, want 220", sum.TotalWait)
	}
	if sum.MeanWait != 110 {
		t.Errorf("mean wait = %v, want 110", sum.MeanWait)
	}
	if sum.TotalHold != 100+50+10+10 {
		t.Errorf("total hold = %v, want 170", sum.TotalHold)
	}
}

func TestPerLockOrdering(t *testing.T) {
	p := New()
	drive(p)
	per := p.PerLock()
	if len(per) != 2 {
		t.Fatalf("per-lock entries = %d, want 2", len(per))
	}
	if per[0].Name != "hot.lock" {
		t.Errorf("hottest lock = %q, want hot.lock", per[0].Name)
	}
	if per[0].Contentions != 2 || per[1].Contentions != 0 {
		t.Errorf("contention ordering wrong: %+v", per)
	}
}

func TestLockStatsDerived(t *testing.T) {
	p := New()
	drive(p)
	hot := p.TopByContention(1)[0]
	if hot.ContentionRate() <= 0 || hot.ContentionRate() > 1 {
		t.Errorf("contention rate = %v", hot.ContentionRate())
	}
	if hot.MeanWait() != 110 {
		t.Errorf("mean wait = %v, want 110", hot.MeanWait())
	}
	if hot.MeanHold() != (100+50+10)/3 {
		t.Errorf("mean hold = %v", hot.MeanHold())
	}
	var zero LockStats
	if zero.ContentionRate() != 0 || zero.MeanWait() != 0 || zero.MeanHold() != 0 {
		t.Error("zero stats should have zero derived values")
	}
}

func TestTopByContentionLimit(t *testing.T) {
	p := New()
	drive(p)
	if got := len(p.TopByContention(1)); got != 1 {
		t.Errorf("TopByContention(1) returned %d", got)
	}
	if got := len(p.TopByContention(10)); got != 2 {
		t.Errorf("TopByContention(10) returned %d", got)
	}
}

func TestHistograms(t *testing.T) {
	p := New()
	drive(p)
	if p.WaitHistogram().Total() != 2 {
		t.Errorf("wait samples = %d, want 2", p.WaitHistogram().Total())
	}
	if p.HoldHistogram().Total() != 4 {
		t.Errorf("hold samples = %d, want 4", p.HoldHistogram().Total())
	}
}

func TestReport(t *testing.T) {
	p := New()
	drive(p)
	var buf bytes.Buffer
	p.Report(&buf, 5)
	out := buf.String()
	for _, want := range []string{"hot.lock", "cold.lock", "acquisitions", "CONTENDED"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := New()
	sum := p.Summary()
	if sum.Locks != 0 || sum.Acquisitions != 0 || sum.MeanWait != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
	if len(p.PerLock()) != 0 {
		t.Error("empty profiler has per-lock entries")
	}
	var buf bytes.Buffer
	p.Report(&buf, 3) // must not panic
}
