package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"javasim/internal/fit"
	"javasim/internal/workload"
)

// FuzzLoadPlan throws arbitrary bytes at the plan loader. Whatever the
// input, LoadPlan must either return a plan its own Validate accepts or
// a clear error — never panic, and never let through an output or report
// that misses a requirement its kind-table entry declares (a degenerate
// usl sweep, for one, would otherwise fail mid-plan in the fitter). The
// hand-written seeds cover the usl report schema: valid plans, short
// sweeps, unknown fields/kinds/metrics/outputs, and rate-sweep
// cross-references. declaredSeeds adds a meeting and a breaking plan for
// every requirement in the table, so a requirement added there is fuzzed
// with no change here.
func FuzzLoadPlan(f *testing.F) {
	seeds := []string{
		``,
		`not json`,
		`{}`,
		`{"Scenarios":[]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		// A valid usl plan: report plus per-scenario output over a
		// 3-point sweep.
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan","Outputs":["usl"]}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		// Degenerate sweeps: a usl report or output over < 3 points must
		// be rejected at validation time with a clear error, not NaN.
		`{"ThreadCounts":[4,32],"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan","ThreadCounts":[8],"Outputs":["usl"]}]}`,
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan","ThreadCounts":[4,32]}],"Reports":[{"Name":"r","Kind":"usl","Scenarios":["a"]}]}`,
		// Unknown fields, kinds, metrics, outputs.
		`{"Scenarios":[{"Name":"a","Workload":"xalan","Sigma":1}]}`,
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"lsu"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"series","Metric":"sigma"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan","Outputs":["lsu"]}]}`,
		// usl across a rate sweep: must be rejected (the fit reads the
		// thread axis).
		`{"Scenarios":[{"Name":"a","Workload":"server","Traffic":{"Process":"poisson","Rates":[100,200]}}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"server","Traffic":{"Process":"poisson","Rates":[100,200]},"Outputs":["usl"]}]}`,
		// Structural traps around validation edges.
		`{"ThreadCounts":[8,4],"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		`{"Scale":7,"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"},{"Name":"a","Workload":"xalan"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"no-such-workload"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, sd := range declaredSeeds() {
		data, err := json.Marshal(sd.plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatalf("LoadPlan returned a plan alongside error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("LoadPlan accepted a plan its own Validate rejects: %v", err)
		}
		if err := declarationViolation(p); err != nil {
			t.Fatalf("LoadPlan accepted a plan that misses its kind table: %v", err)
		}
	})
}

// declarationViolation re-checks an accepted plan against the kind table:
// every output and report must meet each requirement its entry declares.
func declarationViolation(p *Plan) error {
	check := func(what string, k kind, rs *ReportSpec, scs []*Scenario) error {
		for _, sc := range scs {
			switch {
			case k.axis == threadAxis && sc.Traffic != nil, k.axis == rateAxis && sc.Traffic == nil:
				return fmt.Errorf("%s over scenario %q of the wrong sweep axis", what, sc.Name)
			case k.fits && len(sc.threadCounts(p)) < fit.MinPoints:
				return fmt.Errorf("%s over scenario %q's %d-point sweep", what, sc.Name, len(sc.threadCounts(p)))
			case k.repeats && sc.repeats() < 2:
				return fmt.Errorf("%s over unrepeated scenario %q", what, sc.Name)
			case k.sameGrid && !(slices.Equal(sc.threadCounts(p), scs[0].threadCounts(p)) && slices.Equal(sc.rates(), scs[0].rates())):
				return fmt.Errorf("%s over scenarios with different grids", what)
			case k.sameTop && sc.top(p) != scs[0].top(p):
				return fmt.Errorf("%s over scenarios with different top thread counts", what)
			}
		}
		if rs == nil {
			return nil
		}
		named := rs.named()
		if (k.exactly > 0 && len(named) != k.exactly) || len(named) < k.atLeast {
			return fmt.Errorf("%s names %d scenarios", what, len(named))
		}
		for _, f := range optionalFields {
			if f.set(rs) && k.fields&f.flag == 0 {
				return fmt.Errorf("%s sets %s", what, f.name)
			}
		}
		if _, ok := kinds[rs.Metric]; k.fields&fieldMetric != 0 && !ok {
			return fmt.Errorf("%s has unknown metric %q", what, rs.Metric)
		}
		for _, n := range []int{rs.LowThreads, rs.HighThreads} {
			if n != 0 && !slices.Contains(scs[0].threadCounts(p), n) {
				return fmt.Errorf("%s picks thread count %d outside its sweep", what, n)
			}
		}
		return nil
	}
	byName := map[string]*Scenario{}
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		byName[sc.Name] = sc
		for _, out := range sc.Outputs {
			if err := check(fmt.Sprintf("output %q of %q", out, sc.Name), kinds[out], nil, []*Scenario{sc}); err != nil {
				return err
			}
		}
	}
	for i := range p.Reports {
		rs := &p.Reports[i]
		var scs []*Scenario
		for _, n := range p.reportScenarios(rs) {
			scs = append(scs, byName[n])
		}
		if err := check(fmt.Sprintf("report %q", rs.Name), kinds[rs.Kind], rs, scs); err != nil {
			return err
		}
	}
	return nil
}

// declaredSeed is a plan derived from the kind table and whether
// Validate must accept it.
type declaredSeed struct {
	plan  *Plan
	valid bool
}

// declaredSeeds derives fuzz seeds from the kind table: for every output
// and report kind, a plan meeting all its declared requirements, and for
// each requirement its entry declares, a plan breaking exactly that one.
// Each optional ReportSpec field is set once on every report kind: valid
// where the entry accepts it, invalid elsewhere.
func declaredSeeds() []declaredSeed {
	scenario := func(name string, k kind, rates bool) Scenario {
		sc := Scenario{Name: name, Workload: workload.NameRef("xalan"), ThreadCounts: []int{2, 4, 8}}
		if rates {
			sc = Scenario{Name: name, Workload: workload.NameRef("server"),
				Traffic: &TrafficSpec{Process: "poisson", Rates: []float64{100, 200}}}
		}
		if k.repeats {
			sc.Repeats = 2
		}
		return sc
	}
	setField := func(rs *ReportSpec, flag field) {
		switch flag {
		case fieldMetric:
			rs.Metric = MetricCDFBelow1KB
		case fieldKey:
			rs.Key = "row"
		case fieldThreads:
			rs.LowThreads, rs.HighThreads = 2, 8
		case fieldPair:
			rs.Baseline, rs.Modified, rs.Scenarios = "s0", "s1", nil
		}
	}
	keys := make([]any, 0, len(kinds))
	for key := range kinds {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b any) int {
		return strings.Compare(fmt.Sprintf("%T/%v", a, a), fmt.Sprintf("%T/%v", b, b))
	})
	var seeds []declaredSeed
	for _, key := range keys {
		k := kinds[key]
		if k.render == nil {
			continue // a Metric: the series report's seeds cover it
		}
		_, isOutput := key.(Output)
		n := max(1, k.exactly, k.atLeast)
		if k.sameGrid || k.sameTop {
			n = max(n, 2)
		}
		// add appends the kind's valid plan after mutate has edited it.
		add := func(valid bool, mutate func(p *Plan, rs *ReportSpec)) {
			p := &Plan{Name: fmt.Sprint(key)}
			var names []string
			for i := 0; i < n; i++ {
				p.Scenarios = append(p.Scenarios, scenario(fmt.Sprintf("s%d", i), k, k.axis == rateAxis))
				names = append(names, p.Scenarios[i].Name)
			}
			rs := &ReportSpec{} // outputs take no ReportSpec fields
			if isOutput {
				p.Scenarios[0].Outputs = []Output{key.(Output)}
			} else {
				p.Reports = []ReportSpec{{Name: "r", Kind: key.(ReportKind), Scenarios: names}}
				rs = &p.Reports[0]
				if k.fields&fieldMetric != 0 {
					rs.Metric = MetricGCSeconds
				}
			}
			if mutate != nil {
				mutate(p, rs)
			}
			seeds = append(seeds, declaredSeed{p, valid})
		}
		add(true, nil)
		if k.axis == threadAxis || k.axis == rateAxis {
			add(false, func(p *Plan, _ *ReportSpec) {
				outputs := p.Scenarios[0].Outputs
				p.Scenarios[0] = scenario("s0", k, k.axis == threadAxis)
				p.Scenarios[0].Outputs = outputs
			})
		}
		if k.exactly > 0 {
			add(false, func(p *Plan, rs *ReportSpec) {
				p.Scenarios = append(p.Scenarios, scenario("extra", k, k.axis == rateAxis))
				rs.Scenarios = append(rs.Scenarios, "extra")
			})
		}
		if k.atLeast > 0 {
			add(false, func(_ *Plan, rs *ReportSpec) { rs.Scenarios = rs.Scenarios[:k.atLeast-1] })
		}
		if k.sameGrid {
			add(false, func(p *Plan, _ *ReportSpec) {
				if k.axis == rateAxis {
					p.Scenarios[1].Traffic.Rates = []float64{100, 300}
				} else {
					p.Scenarios[1].ThreadCounts = []int{1, 4, 8}
				}
			})
		}
		if k.sameTop {
			add(false, func(p *Plan, _ *ReportSpec) { p.Scenarios[1].ThreadCounts = []int{2, 4, 16} })
		}
		if k.fits {
			add(false, func(p *Plan, _ *ReportSpec) { p.Scenarios[0].ThreadCounts = []int{4, 8} })
		}
		if k.repeats {
			add(false, func(p *Plan, _ *ReportSpec) { p.Scenarios[0].Repeats = 1 })
		}
		if isOutput {
			continue
		}
		for _, f := range optionalFields {
			accepts := k.fields&f.flag != 0
			add(accepts, func(_ *Plan, rs *ReportSpec) { setField(rs, f.flag) })
			if !accepts {
				continue
			}
			switch f.flag {
			case fieldMetric:
				add(false, func(_ *Plan, rs *ReportSpec) { rs.Metric = "bogus" })
			case fieldThreads:
				add(false, func(_ *Plan, rs *ReportSpec) { rs.LowThreads = 3 })
			case fieldPair:
				add(false, func(_ *Plan, rs *ReportSpec) { rs.Baseline = "s0" })
			}
		}
	}
	return seeds
}

// TestDeclaredSeeds checks the kind-table fuzz seeds split as declared:
// Validate accepts each meeting plan and rejects each breaking one.
func TestDeclaredSeeds(t *testing.T) {
	seeds := declaredSeeds()
	if len(seeds) < len(kinds) {
		t.Fatalf("only %d seeds for %d table entries", len(seeds), len(kinds))
	}
	for i, sd := range seeds {
		err := sd.plan.Validate()
		if sd.valid && err != nil {
			t.Errorf("seed %d (%s): valid plan rejected: %v", i, sd.plan.Name, err)
		}
		if !sd.valid && err == nil {
			data, _ := json.Marshal(sd.plan)
			t.Errorf("seed %d (%s): breaking plan accepted: %s", i, sd.plan.Name, data)
		}
	}
}
