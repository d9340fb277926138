package vm

import "javasim/internal/workload"

// Allocation-site pretenuring (Config.Pretenuring) — the classic JVM
// mitigation for exactly the problem the paper identifies: long-lived
// objects defeating the generational hypothesis. The learner watches each
// allocation site's observed lifetimes online; once a site is confidently
// long-lived, its objects are allocated directly in the old generation,
// skipping the nursery and the survivor copying that inflates minor
// pauses at high thread counts.

// pretenureMinSamples is the evidence required before a site's verdict is
// trusted.
const pretenureMinSamples = 64

// pretenureThreshold is the long-lived fraction above which a site is
// pretenured.
const pretenureThreshold = 0.6

type siteStats struct {
	samples   int64
	longLived int64
}

type pretenurer struct {
	enabled bool
	sites   [workload.NumAllocSites]siteStats
	// longLifespan is the lifespan (bytes) above which a death counts as
	// long-lived; the VM sets it to the eden size — an object outliving
	// one nursery cycle would have been copied.
	longLifespan int64
	// pretenured counts objects allocated straight to the old generation.
	pretenured int64
}

// onDeath feeds the learner one completed lifetime.
func (p *pretenurer) onDeath(site uint8, lifespan int64) {
	s := &p.sites[site]
	s.samples++
	if lifespan >= p.longLifespan {
		s.longLived++
	}
}

// onPromote feeds the learner a promotion — the strongest pre-death
// long-lived signal.
func (p *pretenurer) onPromote(site uint8) {
	s := &p.sites[site]
	s.samples++
	s.longLived++
}

// shouldPretenure reports whether new allocations at site belong in the
// old generation.
func (p *pretenurer) shouldPretenure(site int32) bool {
	if !p.enabled || site < 0 {
		return false
	}
	s := &p.sites[site]
	return s.samples >= pretenureMinSamples &&
		float64(s.longLived) >= pretenureThreshold*float64(s.samples)
}
