package traffic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"javasim/internal/sim"
)

func mkProcess(t *testing.T, name string, cfg Config) Process {
	t.Helper()
	p, err := NewProcess(name, cfg)
	if err != nil {
		t.Fatalf("NewProcess(%q): %v", name, err)
	}
	return p
}

// drawTrace generates n arrival instants from a fresh process and rng.
func drawTrace(t *testing.T, name string, cfg Config, seed uint64, n int) []sim.Time {
	t.Helper()
	cfg.Process = name
	cfg = cfg.Canonical()
	p := mkProcess(t, name, cfg)
	rng := sim.NewRand(seed)
	out := make([]sim.Time, n)
	now := sim.Time(0)
	for i := range out {
		gap := p.Next(now, rng)
		if gap <= 0 {
			t.Fatalf("%s: non-positive gap %v at arrival %d", name, gap, i)
		}
		now += gap
		out[i] = now
	}
	return out
}

// TestDeterminism verifies equal seeds reproduce identical arrival
// traces for every built-in open process.
func TestDeterminism(t *testing.T) {
	cfg := Config{RatePerSec: 50000}
	for _, name := range []string{ProcessPoisson, ProcessBursty, ProcessDiurnal} {
		a := drawTrace(t, name, cfg, 7, 2000)
		b := drawTrace(t, name, cfg, 7, 2000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: traces diverge at arrival %d: %v vs %v", name, i, a[i], b[i])
			}
		}
		c := drawTrace(t, name, cfg, 8, 2000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical traces", name)
		}
	}
}

// TestMeanRate verifies each process's long-run average rate converges
// on RatePerSec. Bursty and diurnal modulate the instantaneous rate but
// preserve the mean by construction.
func TestMeanRate(t *testing.T) {
	const rate = 100000.0
	cfg := Config{RatePerSec: rate}
	const n = 200000
	for _, name := range []string{ProcessPoisson, ProcessBursty, ProcessDiurnal} {
		trace := drawTrace(t, name, cfg, 11, n)
		span := trace[len(trace)-1].Seconds()
		got := float64(n) / span
		if math.Abs(got-rate)/rate > 0.05 {
			t.Errorf("%s: long-run rate %.0f/s, want %.0f/s ±5%%", name, got, rate)
		}
	}
}

// TestBurstyModulates verifies the bursty process actually alternates
// between dense and sparse stretches rather than degenerating to
// Poisson: the variance of per-window arrival counts must exceed the
// Poisson variance (= mean) by a wide margin.
func TestBurstyModulates(t *testing.T) {
	trace := drawTrace(t, ProcessBursty, Config{RatePerSec: 100000}, 3, 100000)
	window := burstPeriod / 4
	counts := make(map[sim.Time]float64)
	for _, at := range trace {
		counts[at/window]++
	}
	last := trace[len(trace)-1] / window
	var sum, sumsq float64
	for w := sim.Time(0); w < last; w++ {
		c := counts[w]
		sum += c
		sumsq += c * c
	}
	n := float64(last)
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 2*mean {
		t.Fatalf("bursty window counts look Poisson: mean %.1f variance %.1f", mean, variance)
	}
}

// TestClosedAdapter verifies that "closed" selects the closed loop
// through Config.Open, not through the registry: it names no process,
// and a config naming it is closed and valid.
func TestClosedAdapter(t *testing.T) {
	if _, err := NewProcess(ProcessClosed, Config{Process: ProcessClosed}); err == nil {
		t.Error(`"closed" resolved to a registered process`)
	}
	if _, err := NewProcess("", Config{}); err == nil {
		t.Error("the empty name resolved to a registered process")
	}
	c := Config{Process: ProcessClosed, RatePerSec: 100}
	if c.Open() {
		t.Error(`a config naming "closed" is open`)
	}
	if err := c.Validate(); err != nil {
		t.Errorf(`a config naming "closed" is invalid: %v`, err)
	}
}

// TestCanonical verifies closed-equivalent configs collapse to the zero
// value (sharing cache keys with plain closed-loop runs) and open
// configs stay as they are.
func TestCanonical(t *testing.T) {
	for _, c := range []Config{{}, {Process: ProcessClosed}, {Process: ProcessClosed, RatePerSec: 100}} {
		if got := c.Canonical(); got != (Config{}) {
			t.Errorf("Canonical(%+v) = %+v, want zero", c, got)
		}
	}
	open := Config{Process: ProcessPoisson, RatePerSec: 100, Requests: 10, Timeout: sim.Millisecond}
	if got := open.Canonical(); got != open {
		t.Errorf("Canonical(%+v) = %+v, want it unchanged", open, got)
	}
}

// TestValidate exercises the config validator's rejections.
func TestValidate(t *testing.T) {
	ok := Config{Process: ProcessPoisson, RatePerSec: 100}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("closed config rejected: %v", err)
	}
	bad := []Config{
		{Process: "no-such-process", RatePerSec: 100},
		{Process: ProcessPoisson},
		{Process: ProcessPoisson, RatePerSec: -1},
		{Process: ProcessPoisson, RatePerSec: 100, Requests: -1},
		{Process: ProcessPoisson, RatePerSec: 100, Timeout: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

// registerRuns numbers TestRegister's runs in this process: the catalog
// is process-global and a registration cannot be undone, so each run
// (go test -count=N) registers a fresh name.
var registerRuns int

// TestRegister checks that a custom registration resolves through
// NewProcess with the canonicalized config, and that registering the
// same name again is rejected.
func TestRegister(t *testing.T) {
	registerRuns++
	name := fmt.Sprintf("test-fixed-%d", registerRuns)
	factory := func(cfg Config) (Process, error) {
		return fixedGap(sim.Time(1e9 / cfg.RatePerSec)), nil
	}
	if err := Processes.Register(name, factory); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := Processes.Register(name, factory); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate Register error = %v", err)
	}
	if err := (Config{Process: name, RatePerSec: 1000}).Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := mkProcess(t, name, Config{Process: name, RatePerSec: 1000})
	if gap := p.Next(0, sim.NewRand(1)); gap != sim.Time(1e6) {
		t.Fatalf("custom process gap = %v, want 1ms", gap)
	}
}

type fixedGap sim.Time

func (f fixedGap) Next(sim.Time, *sim.Rand) sim.Time { return sim.Time(f) }

// TestArrivalSequencesPinned hashes the first 100,000 arrival instants of
// each built-in open process at three rates and one seed, against values
// recorded before the bursty and diurnal shape parameters became
// constants. An ulp of drift in a rate or a sojourn mean can flip a
// rounded gap, so any change to the arithmetic shows here.
func TestArrivalSequencesPinned(t *testing.T) {
	for _, tc := range []struct {
		process string
		rate    float64
		want    uint64
	}{
		{ProcessPoisson, 10000, 0xebeed6c7853eeee1},
		{ProcessPoisson, 50000, 0xe89324ccc4fa7763},
		{ProcessPoisson, 200000, 0x37d6c9afbc4ca0b7},
		{ProcessBursty, 10000, 0xd3dd2bec42f23ed8},
		{ProcessBursty, 50000, 0x71d0f36282c8cd42},
		{ProcessBursty, 200000, 0x5997e9cd3900c6be},
		{ProcessDiurnal, 10000, 0xc57d2d4a0f6d552f},
		{ProcessDiurnal, 50000, 0x9fe6d1d5c3202ceb},
		{ProcessDiurnal, 200000, 0xa781ce314cd0dd2d},
	} {
		h := fnv.New64a()
		var b [8]byte
		for _, at := range drawTrace(t, tc.process, Config{RatePerSec: tc.rate}, 42, 100000) {
			binary.LittleEndian.PutUint64(b[:], uint64(at))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s at %.0f/s: arrival hash %#x, want %#x", tc.process, tc.rate, got, tc.want)
		}
	}
}
