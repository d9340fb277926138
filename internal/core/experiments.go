package core

import (
	"fmt"

	"javasim/internal/gc"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// ExperimentConfig parameterizes the reproduction suite: PaperPlan and
// StudyPlan. The zero value reproduces the paper's setup at full scale.
type ExperimentConfig struct {
	// ThreadCounts is the sweep; nil means the paper's {4,8,16,24,32,48}.
	ThreadCounts []int
	// Scale shrinks every workload (0 < Scale <= 1); 0 means full scale.
	// Benchmarks and CI use reduced scales.
	Scale float64
	// Seed drives all randomness; 0 means 42.
	Seed uint64
	// Workloads restricts PaperPlan's benchmark set; nil means all six.
	// StudyPlan ignores it: each study runs its own workload.
	Workloads []workload.Spec
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if len(c.ThreadCounts) == 0 {
		c.ThreadCounts = DefaultThreadCounts
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.PaperSet()
	}
	return c
}

// cdfLimits are the lifespan bucket boundaries (bytes) used for the
// Figure 1c/1d distributions.
var cdfLimits = []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

func meanPause(ps []gc.Pause) sim.Time {
	if len(ps) == 0 {
		return 0
	}
	var sum sim.Time
	for _, p := range ps {
		sum += p.Duration
	}
	return sum / sim.Time(len(ps))
}

func maxPause(ps []gc.Pause) sim.Time {
	var m sim.Time
	for _, p := range ps {
		if p.Duration > m {
			m = p.Duration
		}
	}
	return m
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
