package main

import (
	"bytes"
	"embed"
	"fmt"

	"javasim/internal/core"
)

// The plan files are frozen copies of the repository's testdata plans, so
// that a change to testdata/ cannot silently change what the benchmark
// measures. Only their seeds vary, derived from the run's --seed.
//
//go:embed plans/*.json
var planFS embed.FS

// contendedParts are the plans merged into the open-contended plan.
var contendedParts = []string{"open_system", "policies", "machines", "gc_policies"}

// replayPlans are the small plans the serve-replay clients submit, in
// submission order.
var replayPlans = []string{"plan", "policies", "machines", "gc_policies", "open_system"}

// tinyScale shrinks every workload in tiny mode (the benchmark's tests).
const tinyScale = 0.1

func loadEmbedded(name string) (*core.Plan, error) {
	data, err := planFS.ReadFile("plans/" + name + ".json")
	if err != nil {
		return nil, err
	}
	return core.LoadPlan(bytes.NewReader(data))
}

// planSeed derives the seed of part `part` of plan variant (or replay
// round) `variant` from the run seed. It is never 0, which plans read as
// "inherit".
func planSeed(seed uint64, variant, part int) uint64 {
	return 1 + seed*1_000_003 + uint64(variant)*101 + uint64(part)
}

// paperPlan is core.PaperPlan at full scale (or the golden-test
// configuration's size in tiny mode) under a seed derived from seed and
// variant.
func paperPlan(seed uint64, variant int, tiny bool) *core.Plan {
	cfg := core.ExperimentConfig{Seed: planSeed(seed, variant, 0)}
	if tiny {
		cfg.ThreadCounts = []int{2, 4}
		cfg.Scale = 0.02
	}
	return core.PaperPlan(cfg)
}

// contendedPlan merges the lock-policy, machine, GC-policy and
// open-system plans into one plan, adding a bursty-arrival variant of
// the open-system scenarios. Its seeds derive from seed and variant.
func contendedPlan(seed uint64, variant int, tiny bool) (*core.Plan, error) {
	merged := &core.Plan{Name: "open-contended"}
	for i, name := range contendedParts {
		p, err := loadEmbedded(name)
		if err != nil {
			return nil, err
		}
		if name == "open_system" {
			addBurstyVariant(p)
		}
		if tiny {
			shrink(p)
		}
		appendPart(merged, p, planSeed(seed, variant, i))
	}
	return merged, merged.Validate()
}

// addBurstyVariant duplicates every open-system scenario under a bursty
// arrival process and adds a goodput report over the copies.
func addBurstyVariant(p *core.Plan) {
	var names []string
	for _, sc := range p.Scenarios {
		if sc.Traffic == nil {
			continue
		}
		tr := *sc.Traffic
		tr.Process = "bursty"
		sc.Traffic = &tr
		sc.Name += "-bursty"
		sc.Outputs = nil
		p.Scenarios = append(p.Scenarios, sc)
		names = append(names, sc.Name)
	}
	p.Reports = append(p.Reports, core.ReportSpec{
		Name: "goodput-bursty", Kind: core.ReportGoodput, Scenarios: names,
		Title: "Goodput under bursty overload - fifo vs restricted locking",
	})
}

// appendPart moves p's scenarios and reports into dst under a "<plan>."
// name prefix, pinning the plan-level defaults p's scenarios inherit
// (scale, thread counts, policies, machine) onto each scenario and
// overriding every seed with seed.
func appendPart(dst, p *core.Plan, seed uint64) {
	prefix := p.Name + "."
	var all []string
	for _, sc := range p.Scenarios {
		sc.Name = prefix + sc.Name
		all = append(all, sc.Name)
		sc.Seed = seed
		if sc.Scale == 0 {
			sc.Scale = p.Scale
		}
		if sc.Traffic == nil && len(sc.ThreadCounts) == 0 {
			sc.ThreadCounts = p.ThreadCounts
		}
		var o core.ConfigOverrides
		if sc.Overrides != nil {
			o = *sc.Overrides
		}
		inherit(&o.LockPolicy, p.LockPolicy)
		inherit(&o.Placement, p.Placement)
		inherit(&o.GCPolicy, p.GCPolicy)
		inherit(&o.Machine, p.Machine)
		if o != (core.ConfigOverrides{}) {
			sc.Overrides = &o
		}
		dst.Scenarios = append(dst.Scenarios, sc)
	}
	for _, rs := range p.Reports {
		rs.Name = prefix + rs.Name
		switch {
		case rs.Baseline != "":
			rs.Baseline, rs.Modified = prefix+rs.Baseline, prefix+rs.Modified
		case len(rs.Scenarios) == 0:
			rs.Scenarios = all
		default:
			named := make([]string, len(rs.Scenarios))
			for i, n := range rs.Scenarios {
				named[i] = prefix + n
			}
			rs.Scenarios = named
		}
		dst.Reports = append(dst.Reports, rs)
	}
}

func inherit(field *string, def string) {
	if *field == "" {
		*field = def
	}
}

// replayRound returns round r's serve-replay plans, each with a fresh
// seed, encoded as the JSON bodies the clients POST.
func replayRound(seed uint64, round int, tiny bool) ([][]byte, error) {
	bodies := make([][]byte, len(replayPlans))
	for i, name := range replayPlans {
		p, err := loadEmbedded(name)
		if err != nil {
			return nil, err
		}
		p.Seed = planSeed(seed, round+1, i)
		if tiny {
			shrink(p)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// shrink scales every scenario of p (and its open-system request budget)
// down by tinyScale.
func shrink(p *core.Plan) {
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		scale := sc.Scale
		if scale == 0 {
			scale = p.Scale
		}
		if scale == 0 {
			scale = 1
		}
		sc.Scale = scale * tinyScale
		if sc.Traffic != nil && sc.Traffic.Requests > 0 {
			tr := *sc.Traffic
			tr.Requests = max(1, int(float64(tr.Requests)*tinyScale))
			sc.Traffic = &tr
		}
	}
}

// decodePlan validates a generated plan body the way the CLI and the
// daemon do.
func decodePlan(body []byte) (*core.Plan, error) {
	p, err := core.LoadPlan(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("generated plan: %w", err)
	}
	return p, nil
}
