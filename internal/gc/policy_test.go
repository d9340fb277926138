package gc

import (
	"sync"
	"testing"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
	"javasim/internal/sim"
)

// TestPolicyRegistryConcurrentAccess hammers resolution and enumeration
// from many goroutines so the race detector watches the registry.
func TestPolicyRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				for _, name := range Policies.Names() {
					newPolicy, err := Policies.Get(name)
					if err != nil {
						t.Error(err)
						continue
					}
					newPolicy()
				}
				_ = Policies.Validate("no-such-gc")
			}
		}()
	}
	wg.Wait()
}

// TestStwSerialMatchesSeedCostModel pins the default policy's phase math
// to the seed formula: sequential / (w * eff), eff = 1/(1+alpha*(w-1)).
// The golden artifacts depend on this being bit-exact.
func TestStwSerialMatchesSeedCostModel(t *testing.T) {
	cfg := Config{Workers: 16}.WithDefaults()
	p := StwSerial()
	for _, seq := range []sim.Time{0, 1000, 123456, 7 * sim.Millisecond} {
		w := float64(cfg.Workers)
		eff := 1 / (1 + 0.09*(w-1)) // the seed's calibrated alpha
		want := sim.Time(float64(seq) / (w * eff))
		if got := p.PhaseTime(cfg, seq); got != want {
			t.Errorf("PhaseTime(%v) = %v, want %v", seq, got, want)
		}
	}
	if p.ConcurrentOld() {
		t.Error("stw-serial reports a concurrent old generation")
	}
	if l := p.Layout(LayoutRequest{Compartments: 3, Cores: 8, Sockets: 1}); l.Compartments != 3 || l.HomeSockets != nil {
		t.Errorf("stw-serial layout = %+v, want passthrough", l)
	}
}

// TestStwParallelTaxGrowsWithWorkers checks the stw-parallel signature:
// for small collections the per-worker synchronization tax dominates, so
// pause time grows as workers are added — the GC-bound scaling collapse.
func TestStwParallelTaxGrowsWithWorkers(t *testing.T) {
	p := StwParallel(0, 0) // defaults
	seq := 50 * sim.Microsecond
	prev := sim.Time(-1)
	grewSomewhere := false
	for _, w := range []int{1, 4, 8, 16, 33} {
		cfg := Config{Workers: w}.WithDefaults()
		got := p.PhaseTime(cfg, seq)
		if prev >= 0 && got > prev {
			grewSomewhere = true
		}
		prev = got
	}
	if !grewSomewhere {
		t.Error("small-collection pause never grew with the worker count — no synchronization tax")
	}
	// A huge collection still benefits from more workers.
	big := 50 * sim.Millisecond
	one := p.PhaseTime(Config{Workers: 1}.WithDefaults(), big)
	many := p.PhaseTime(Config{Workers: 16}.WithDefaults(), big)
	if many >= one {
		t.Errorf("large collection: %v with 16 workers >= %v with 1", many, one)
	}
}

// TestCompartmentLayout checks the compartment policy's heap shaping:
// one compartment per spanned socket by default, explicit requests
// honored, homes cycling over the sockets.
func TestCompartmentLayout(t *testing.T) {
	p := Compartment(0)
	l := p.Layout(LayoutRequest{Compartments: 0, Cores: 48, Sockets: 4, CoresPerSocket: 12})
	if l.Compartments != 4 {
		t.Errorf("default layout has %d compartments, want one per socket (4)", l.Compartments)
	}
	if len(l.HomeSockets) != 4 {
		t.Fatalf("home sockets = %v", l.HomeSockets)
	}
	for c, s := range l.HomeSockets {
		if s != c {
			t.Errorf("compartment %d homed on socket %d, want %d", c, s, c)
		}
	}

	l = p.Layout(LayoutRequest{Compartments: 6, Cores: 48, Sockets: 4, CoresPerSocket: 12})
	if l.Compartments != 6 {
		t.Errorf("explicit request resolved to %d compartments, want 6", l.Compartments)
	}
	for c, s := range l.HomeSockets {
		if s != c%4 {
			t.Errorf("compartment %d homed on socket %d, want %d", c, s, c%4)
		}
	}

	// An explicit 1 is a request for the single shared eden, not unset.
	l = p.Layout(LayoutRequest{Compartments: 1, Cores: 48, Sockets: 4, CoresPerSocket: 12})
	if l.Compartments != 1 {
		t.Errorf("explicit Compartments=1 resolved to %d compartments", l.Compartments)
	}

	// A single-socket run degenerates to one compartment, home socket 0.
	l = p.Layout(LayoutRequest{Compartments: 0, Cores: 8, Sockets: 1, CoresPerSocket: 12})
	if l.Compartments != 1 || len(l.HomeSockets) != 1 || l.HomeSockets[0] != 0 {
		t.Errorf("single-socket layout = %+v", l)
	}

	// Tuned group count wins over the socket default (but not over an
	// explicit request).
	if l := Compartment(3).Layout(LayoutRequest{Compartments: 0, Sockets: 4}); l.Compartments != 3 {
		t.Errorf("tuned Compartment(3) laid out %d compartments", l.Compartments)
	}
}

// TestCopyFactorsScaleMinorCopyPhase checks that SetCopyFactors scales
// exactly the evacuation phase of a minor collection and nothing else.
func TestCopyFactorsScaleMinorCopyPhase(t *testing.T) {
	build := func(factors []float64) (*Collector, Pause) {
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := New(StwSerial(), Config{Workers: 8}, h, reg)
		c.SetCopyFactors(factors)
		for j := 0; j < 4096; j++ {
			id := reg.Alloc(512, 0)
			c.OnAlloc(id, 0)
		}
		p, err := c.CollectMinor(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, p
	}
	_, base := build(nil)
	_, scaled := build([]float64{0.5})
	if scaled.Phases.Copy >= base.Phases.Copy {
		t.Errorf("copy phase %v not scaled below baseline %v", scaled.Phases.Copy, base.Phases.Copy)
	}
	if scaled.Phases.Scan != base.Phases.Scan || scaled.Phases.Setup != base.Phases.Setup {
		t.Error("copy factor leaked into scan or setup phases")
	}

	defer func() {
		if recover() == nil {
			t.Error("mismatched factor length did not panic")
		}
	}()
	c, _ := build(nil)
	c.SetCopyFactors([]float64{1, 1})
}
