// Package traffic models open-system load: instead of N threads
// iterating over a fixed work pool (the closed-loop model every DaCapo
// benchmark uses), an arrival process injects requests into the
// simulation at a configured rate, and a fixed pool of server threads
// drains them through a shared queue. The distinction matters because
// queueing delay compounds into tail latency only in open systems —
// a closed loop self-throttles, so saturation shows up as lower
// throughput, never as an unbounded queue (JCiP ch. 11).
//
// Arrival processes are pluggable through a string-keyed registry, like
// lock policies and scheduler placements: "poisson" (memoryless),
// "bursty" (an MMPP-style on/off modulation) and "diurnal" (a sinusoidal
// rate curve sampled by thinning). The name "closed" is not a process: a
// Config naming it, like the zero Config, selects the existing
// closed-loop model (see Config.Open). All draws come from forked
// sim.Rand streams, so runs stay bit-for-bit reproducible per seed.
package traffic

import (
	"fmt"
	"math"

	"javasim/internal/registry"
	"javasim/internal/sim"
)

// Process generates the arrival sequence: Next returns the delay from
// now until the next request arrives. Implementations may keep internal
// state (the bursty process tracks its on/off phase) but must draw all
// randomness from the provided rng so equal seeds reproduce equal
// traces.
type Process interface {
	// Next returns the gap between the arrival at now and the next
	// arrival. The returned delay must be positive.
	Next(now sim.Time, rng *sim.Rand) sim.Time
}

// Factory builds a Process for one run from its canonicalized Config.
type Factory func(cfg Config) (Process, error)

// Built-in process names.
const (
	// ProcessPoisson is the memoryless arrival process: exponential
	// inter-arrival gaps at RatePerSec.
	ProcessPoisson = "poisson"
	// ProcessBursty is an MMPP-style on/off modulated Poisson process:
	// the rate alternates between a burst rate (3x the mean) and a
	// trough rate chosen so the long-run average stays RatePerSec.
	ProcessBursty = "bursty"
	// ProcessDiurnal modulates the rate along a sinusoid of period 2s
	// and relative amplitude 0.8, sampled by thinning.
	ProcessDiurnal = "diurnal"
	// ProcessClosed names the closed-loop model rather than a registered
	// process: the run executes exactly as if no Traffic block were
	// configured.
	ProcessClosed = "closed"
)

// Config selects and parameterizes the arrival process for one run. It
// is embedded in vm.Config, so it must round-trip through JSON and its
// Canonical form decides cache-key identity.
type Config struct {
	// Process names the arrival process in the registry; empty or
	// "closed" selects the closed-loop model and ignores every other
	// field.
	Process string `json:",omitempty"`
	// RatePerSec is the mean offered load in requests per second.
	// Open-system runs require it to be positive.
	RatePerSec float64 `json:",omitempty"`
	// Requests bounds the run: the process stops injecting after this
	// many arrivals. Zero defaults to the workload's TotalUnits.
	Requests int `json:",omitempty"`
	// Timeout abandons requests that wait in the queue longer than this
	// before dispatch (admission timeout); zero means requests never
	// abandon. Timed-out requests count toward offered load but not
	// goodput.
	Timeout sim.Time `json:",omitempty"`
}

// The shapes of the bursty and diurnal processes are fixed: one bursty
// and one diurnal load curve, held constant like the paper's testbed.
// Results are stored under fingerprints of the run's inputs, not of these
// constants, so changing one needs a store.Version bump.
const (
	// burstFactor is the bursty process's on-state rate multiple.
	burstFactor = 3
	// burstOnFraction is the long-run fraction of time the bursty
	// process spends in the on state.
	burstOnFraction = 0.3
	// burstPeriod is the bursty process's mean on+off cycle length.
	burstPeriod = 50 * sim.Millisecond
	// diurnalPeriod is the diurnal sinusoid's full period: a day
	// compressed to simulation scale.
	diurnalPeriod = 2 * sim.Second
	// diurnalAmplitude is the diurnal sinusoid's relative amplitude.
	diurnalAmplitude = 0.8
)

// Open reports whether the config selects an open-system run. Empty and
// "closed" both mean the existing closed-loop model.
func (c Config) Open() bool {
	return c.Process != "" && c.Process != ProcessClosed
}

// Canonical returns the form two configs must be compared in to decide
// whether they describe the same run. A closed config (empty or
// "closed") canonicalizes to the zero value, so a run that spells out
// "closed" shares its cache entry — and its Result — with a
// plain closed-loop run; an open config is already canonical.
func (c Config) Canonical() Config {
	if !c.Open() {
		return Config{}
	}
	return c
}

// Validate reports structurally impossible configurations.
func (c Config) Validate() error {
	if !c.Open() {
		return nil
	}
	if err := Processes.Validate(c.Process); err != nil {
		return err
	}
	if c.RatePerSec <= 0 {
		return fmt.Errorf("traffic: process %q needs RatePerSec > 0 (got %v)", c.Process, c.RatePerSec)
	}
	if c.Requests < 0 {
		return fmt.Errorf("traffic: Requests = %d", c.Requests)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("traffic: Timeout = %v", c.Timeout)
	}
	return nil
}

// Processes is the arrival-process catalog. Factories receive the
// canonicalized config and mint a fresh Process per run (processes hold
// per-run state). It has no default: the closed loop is not a process,
// and Config.Open decides whether a run looks a process up at all.
var Processes = registry.New[Factory]("arrival process", "", nil)

// NewProcess builds the named process from the canonicalized cfg.
func NewProcess(name string, cfg Config) (Process, error) {
	factory, err := Processes.Get(name)
	if err != nil {
		return nil, err
	}
	return factory(cfg.Canonical())
}

func init() {
	Processes.MustRegister(ProcessPoisson, newPoisson)
	Processes.MustRegister(ProcessBursty, newBursty)
	Processes.MustRegister(ProcessDiurnal, newDiurnal)
}

// --- Poisson ------------------------------------------------------------

// poisson draws exponential inter-arrival gaps: the memoryless baseline
// of open-system load models.
type poisson struct {
	meanGapNS float64
}

func newPoisson(cfg Config) (Process, error) {
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("traffic: poisson needs RatePerSec > 0 (got %v)", cfg.RatePerSec)
	}
	return &poisson{meanGapNS: 1e9 / cfg.RatePerSec}, nil
}

func (p *poisson) Next(_ sim.Time, rng *sim.Rand) sim.Time {
	return expGap(rng, p.meanGapNS)
}

// expGap draws an exponential gap with the given mean in nanoseconds,
// floored at 1ns so consecutive arrivals always advance virtual time.
func expGap(rng *sim.Rand, meanNS float64) sim.Time {
	g := sim.Time(rng.Exp(meanNS))
	if g < 1 {
		g = 1
	}
	return g
}

// --- Bursty (MMPP-style on/off) -----------------------------------------

// bursty is a two-state Markov-modulated Poisson process: exponential
// sojourns in an "on" state arriving at burstFactor x the mean rate and
// an "off" state at the complementary trough rate, chosen so the
// long-run average equals RatePerSec. Memorylessness lets Next redraw
// the pending gap whenever a state boundary passes before the arrival.
type bursty struct {
	onGapNS  float64 // mean inter-arrival gap while on
	offGapNS float64 // mean gap while off; 0 means no arrivals when off
	onMean   float64 // mean on-sojourn, ns
	offMean  float64 // mean off-sojourn, ns

	on       bool
	stateEnd sim.Time
	seeded   bool
}

func newBursty(cfg Config) (Process, error) {
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("traffic: bursty needs RatePerSec > 0 (got %v)", cfg.RatePerSec)
	}
	// The shape parameters are float64 variables, not constant
	// expressions: Go folds constant arithmetic exactly, which would round
	// rateOff differently from the float64 arithmetic the arrival
	// sequences were drawn with.
	var f, k, period float64 = burstOnFraction, burstFactor, float64(burstPeriod)
	rateOn := cfg.RatePerSec * k
	// Long-run average: f*rateOn + (1-f)*rateOff = RatePerSec.
	rateOff := cfg.RatePerSec * (1 - f*k) / (1 - f)
	if rateOff < 0 {
		rateOff = 0
	}
	b := &bursty{
		onMean:  f * period,
		offMean: (1 - f) * period,
	}
	if rateOn > 0 {
		b.onGapNS = 1e9 / rateOn
	}
	if rateOff > 0 {
		b.offGapNS = 1e9 / rateOff
	}
	return b, nil
}

func (b *bursty) Next(now sim.Time, rng *sim.Rand) sim.Time {
	if !b.seeded {
		// Start in the off state so the first burst onset is itself
		// random; the first sojourn begins at the first call's now.
		b.seeded = true
		b.on = false
		b.stateEnd = now + sim.Time(rng.Exp(b.offMean))
	}
	t := now
	for {
		gap := b.onGapNS
		if !b.on {
			gap = b.offGapNS
		}
		if gap > 0 {
			arrival := t + expGap(rng, gap)
			if arrival <= b.stateEnd {
				d := arrival - now
				if d < 1 {
					d = 1
				}
				return d
			}
		}
		// No arrival before the state boundary: advance to it, flip
		// state, and redraw (valid by memorylessness).
		t = b.stateEnd
		b.on = !b.on
		mean := b.offMean
		if b.on {
			mean = b.onMean
		}
		b.stateEnd = t + sim.Time(rng.Exp(mean))
	}
}

// --- Diurnal (sinusoidal rate curve) ------------------------------------

// diurnal modulates the Poisson rate along a sinusoid — the compressed
// day/night load curve of a user-facing service — and samples it by
// thinning against the peak rate.
type diurnal struct {
	baseRate float64 // per ns
	amp      float64
	period   float64 // ns
}

func newDiurnal(cfg Config) (Process, error) {
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("traffic: diurnal needs RatePerSec > 0 (got %v)", cfg.RatePerSec)
	}
	return &diurnal{
		baseRate: cfg.RatePerSec / 1e9,
		amp:      diurnalAmplitude,
		period:   float64(diurnalPeriod),
	}, nil
}

func (d *diurnal) Next(now sim.Time, rng *sim.Rand) sim.Time {
	rmax := d.baseRate * (1 + d.amp)
	t := now
	for {
		t += expGap(rng, 1/rmax)
		rate := d.baseRate * (1 + d.amp*math.Sin(2*math.Pi*float64(t)/d.period))
		if rng.Float64()*rmax < rate {
			gap := t - now
			if gap < 1 {
				gap = 1
			}
			return gap
		}
	}
}
