package trace

import (
	"bytes"
	"context"
	"testing"

	"javasim/internal/sim"
)

func detailedFixture(t *testing.T) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Thread 0 allocates two objects in window 0; thread 1 allocates one
	// in window 1. All die later.
	evs := []Event{
		{Kind: Alloc, Time: 100, Thread: 0, Object: 1, Size: 100, Clock: 100},
		{Kind: Alloc, Time: 200, Thread: 0, Object: 2, Size: 50, Clock: 150},
		{Kind: Death, Time: 300, Thread: 0, Object: 1, Clock: 150},
		{Kind: Alloc, Time: sim.Millisecond + 10, Thread: 1, Object: 3, Size: 200, Clock: 350},
		{Kind: Death, Time: sim.Millisecond + 20, Thread: 1, Object: 3, Clock: 350},
		{Kind: Death, Time: sim.Millisecond + 30, Thread: 0, Object: 2, Clock: 350},
		{Kind: GCStart, Time: sim.Millisecond + 40},
	}
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return NewReader(&buf)
}

func TestAnalyzeDetailedThreads(t *testing.T) {
	a, err := Analyze(context.Background(), detailedFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Allocs != 3 || a.Deaths != 3 || a.GCs != 1 || a.Leaked != 0 {
		t.Errorf("totals %+v", a)
	}
	if len(a.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(a.Threads))
	}
	t0, t1 := a.Threads[0], a.Threads[1]
	if t0.Thread != 0 || t0.Allocs != 2 || t0.AllocBytes != 150 {
		t.Errorf("thread 0 profile %+v", t0)
	}
	if t1.Thread != 1 || t1.Allocs != 1 || t1.AllocBytes != 200 {
		t.Errorf("thread 1 profile %+v", t1)
	}
	// Thread 0's objects: obj1 lifespan 50, obj2 lifespan 200.
	if t0.Lifespans.Total() != 2 || t0.Lifespans.Sum() != 250 {
		t.Errorf("thread 0 lifespans n=%d sum=%d", t0.Lifespans.Total(), t0.Lifespans.Sum())
	}
	// Object 3 died instantly.
	if t1.Lifespans.Sum() != 0 {
		t.Errorf("thread 1 lifespan sum %d, want 0", t1.Lifespans.Sum())
	}
}

func TestAnalyzeDetailedChurn(t *testing.T) {
	a, err := Analyze(context.Background(), detailedFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Churn) != 2 {
		t.Fatalf("churn windows = %d, want 2", len(a.Churn))
	}
	w0, w1 := a.Churn[0], a.Churn[1]
	if w0.Start != 0 || w0.AllocBytes != 150 || w0.Deaths != 1 {
		t.Errorf("window 0 = %+v", w0)
	}
	if w1.Start != sim.Millisecond || w1.AllocBytes != 200 || w1.Deaths != 2 {
		t.Errorf("window 1 = %+v", w1)
	}
}

func TestAnalyzeDetailedMatchesBasic(t *testing.T) {
	// The per-thread and churn views must add up to the trace totals.
	a, err := Analyze(context.Background(), detailedFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	var allocs, lifespans, lifespanSum, deaths int64
	for _, tp := range a.Threads {
		allocs += tp.Allocs
		lifespans += tp.Lifespans.Total()
		lifespanSum += tp.Lifespans.Sum()
	}
	for _, w := range a.Churn {
		deaths += w.Deaths
	}
	if allocs != a.Allocs || deaths != a.Deaths {
		t.Errorf("views count %d allocs and %d deaths, totals %d and %d", allocs, deaths, a.Allocs, a.Deaths)
	}
	if lifespans != a.Lifespans.Total() || lifespanSum != a.Lifespans.Sum() {
		t.Error("per-thread and whole-trace lifespan stats disagree")
	}
}

func TestAnalyzeDetailedUnknownDeath(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Death, Time: 1, Object: 42})
	w.Flush()
	if _, err := Analyze(context.Background(), NewReader(&buf), 0); err == nil {
		t.Error("unknown death accepted")
	}
}
