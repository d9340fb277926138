package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"javasim/internal/workload"
)

func TestRunContextPreCanceled(t *testing.T) {
	spec, _ := workload.Registry.Get("xalan")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, spec.Scale(0.02), Config{Threads: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	spec, _ := workload.Registry.Get("xalan")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// Full-scale xalan at 48 threads takes on the order of a second of
		// host time — far longer than the cancellation below.
		_, err := RunContext(ctx, spec, Config{Threads: 48, Seed: 1})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("cancellation took %v, want prompt abort", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abort after cancellation")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	spec, _ := workload.Registry.Get("jython")
	spec = spec.Scale(0.02)
	cfg := Config{Threads: 4, Seed: 11}
	a, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.GCTime != b.GCTime ||
		a.LockAcquisitions != b.LockAcquisitions || a.ObjectsAllocated != b.ObjectsAllocated {
		t.Errorf("Run and RunContext diverged: %+v vs %+v", a, b)
	}
}

func TestConfigCanonicalResolvesZeros(t *testing.T) {
	c := Config{}.Canonical()
	if c.Threads != 4 || c.Cores != 4 || c.HeapFactor != 3 || c.Iterations != 1 {
		t.Errorf("canonical zero config = %+v", c)
	}
	if (Config{Threads: 4}).Canonical() != (Config{}).Canonical() {
		t.Error("explicit default and zero value canonicalize differently")
	}
}
