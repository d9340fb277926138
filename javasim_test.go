package javasim_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"javasim"
	"javasim/internal/gc"
	"javasim/internal/locks"
	"javasim/internal/machine"
	"javasim/internal/registry"
	"javasim/internal/sched"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

func TestFacadeRun(t *testing.T) {
	spec, ok := javasim.LookupWorkload("xalan")
	if !ok {
		t.Fatal("xalan missing")
	}
	eng := javasim.NewEngine()
	res, err := eng.Run(context.Background(), spec.Scale(0.02), javasim.Config{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.ObjectsAllocated == 0 {
		t.Errorf("degenerate result %+v", res)
	}
	if res.LockPolicy != javasim.LockPolicyFIFO || res.Placement != javasim.PlacementAffinity {
		t.Errorf("default run labeled %s/%s, want fifo/affinity", res.LockPolicy, res.Placement)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	bs := javasim.PaperBenchmarks()
	if len(bs) != 6 {
		t.Fatalf("benchmarks = %d, want 6", len(bs))
	}
	scalable := 0
	for _, b := range bs {
		if javasim.PaperScalable(b.Name) {
			scalable++
		}
	}
	if scalable != 3 {
		t.Errorf("scalable count = %d, want 3", scalable)
	}
	if _, ok := javasim.LookupWorkload("nope"); ok {
		t.Error("unknown benchmark found")
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	names := javasim.WorkloadNames()
	if len(names) < 7 || names[0] != "sunflow" {
		t.Fatalf("registry names = %v", names)
	}
	if _, ok := javasim.LookupWorkload("server"); !ok {
		t.Error("server extension not registered")
	}
	custom, _ := javasim.LookupWorkload("xalan")
	custom.Name = "facade-custom"
	// The registry is process-global: tolerate the leftover from a
	// previous in-process run (go test -count=2).
	if err := javasim.RegisterWorkload(custom); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	if err := javasim.RegisterWorkload(custom); err == nil {
		t.Error("duplicate registration succeeded")
	}
	found := false
	for _, s := range javasim.Workloads() {
		if s.Name == "facade-custom" {
			found = true
		}
	}
	if !found {
		t.Error("registered workload missing from Workloads()")
	}
}

// TestFacadePolicyRegistries runs a registered custom lock policy; the
// naming rules themselves are TestCatalogs' job.
func TestFacadePolicyRegistries(t *testing.T) {
	// A tuned custom policy registers under its own name and is then
	// selectable like a built-in. The registry is process-global, so a
	// repeated in-process run (go test -count=2) finds it already there.
	err := javasim.RegisterLockPolicy("facade-spin-10us", func() javasim.LockPolicy {
		return javasim.SpinThenParkPolicy(10 * javasim.Microsecond)
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	spec, _ := javasim.LookupWorkload("xalan")
	eng := javasim.NewEngine()
	res, err := eng.Run(context.Background(), spec.Scale(0.02),
		javasim.Config{Threads: 4, Seed: 1, LockPolicy: "facade-spin-10us"})
	if err != nil {
		t.Fatal(err)
	}
	if res.LockPolicy != "facade-spin-10us" {
		t.Errorf("run labeled %q", res.LockPolicy)
	}
}

// TestNilPolicyFactoryFails checks that a registered lock or GC policy
// whose factory builds nothing fails the run with an error naming that
// policy, rather than running some other policy in its place.
func TestNilPolicyFactoryFails(t *testing.T) {
	// The catalogs are process-global, so a repeated in-process run
	// (go test -count=2) finds these entries already there.
	err := javasim.RegisterLockPolicy("facade-nil-lock", func() javasim.LockPolicy { return nil })
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	err = javasim.RegisterGCPolicy("facade-nil-gc", func() javasim.GCPolicy { return nil })
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	spec, _ := javasim.LookupWorkload("xalan")
	eng := javasim.NewEngine()
	for _, c := range []struct {
		cfg  javasim.Config
		want string
	}{
		{javasim.Config{Threads: 2, Seed: 1, LockPolicy: "facade-nil-lock"}, `lock policy "facade-nil-lock" built no policy`},
		{javasim.Config{Threads: 2, Seed: 1, GCPolicy: "facade-nil-gc"}, `gc policy "facade-nil-gc" built no policy`},
	} {
		_, err := eng.Run(context.Background(), spec.Scale(0.02), c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run error = %v, want one containing %s", err, c.want)
		}
	}
}

// catalog is one name-keyed catalog as TestCatalogs drives it:
// enumeration and registration through the facade, resolution through
// the catalog's registry value.
type catalog struct {
	noun     string
	builtins []string
	def      string // what "" resolves to; "" when the empty name is rejected
	names    func() []string
	register func(name string) error // a valid entry under name
	regBad   func() error            // an entry Register must reject: nil, or an invalid machine
	get      func(name string) (any, error)
}

func getter[T any](r *registry.Registry[T]) func(string) (any, error) {
	return func(name string) (any, error) { return r.Get(name) }
}

// sameEntry compares two resolved entries; funcs compare by code pointer.
func sameEntry(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Func {
		return vb.Kind() == reflect.Func && va.Pointer() == vb.Pointer()
	}
	return reflect.DeepEqual(a, b)
}

// TestCatalogs checks the registration rules every name-keyed catalog
// shares: built-ins first in order, the empty name's default, the one
// unknown-name error, and the rejected registrations.
func TestCatalogs(t *testing.T) {
	defaultMachine, err := machine.Models.Get("")
	if err != nil {
		t.Fatal(err)
	}
	catalogs := []catalog{
		{
			noun: "workload",
			builtins: []string{"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython",
				"server", "server-contended"},
			names: javasim.WorkloadNames,
			register: func(name string) error {
				s, _ := javasim.LookupWorkload("xalan")
				s.Name = name
				return javasim.RegisterWorkload(s)
			},
			get: getter(workload.Registry),
		},
		{
			noun: "lock policy",
			builtins: []string{javasim.LockPolicyFIFO, javasim.LockPolicyBarging,
				javasim.LockPolicySpinThenPark, javasim.LockPolicyRestricted},
			def:   javasim.LockPolicyFIFO,
			names: javasim.LockPolicyNames,
			register: func(name string) error {
				return javasim.RegisterLockPolicy(name, func() javasim.LockPolicy { return javasim.RestrictedPolicy(2) })
			},
			regBad: func() error { return javasim.RegisterLockPolicy("catalog-nil", nil) },
			get:    getter(locks.Policies),
		},
		{
			noun: "placement",
			builtins: []string{javasim.PlacementAffinity, javasim.PlacementRoundRobin,
				javasim.PlacementLeastLoaded},
			def:   javasim.PlacementAffinity,
			names: javasim.PlacementNames,
			register: func(name string) error {
				place, _ := sched.Placements.Get("")
				return javasim.RegisterPlacement(name, place)
			},
			regBad: func() error { return javasim.RegisterPlacement("catalog-nil", nil) },
			get:    getter(sched.Placements),
		},
		{
			noun: "gc policy",
			builtins: []string{javasim.GCPolicyStwSerial, javasim.GCPolicyStwParallel,
				javasim.GCPolicyConcurrent, javasim.GCPolicyCompartment},
			def:   javasim.GCPolicyStwSerial,
			names: javasim.GCPolicyNames,
			register: func(name string) error {
				return javasim.RegisterGCPolicy(name, func() javasim.GCPolicy { return javasim.CompartmentGCPolicy(2) })
			},
			regBad: func() error { return javasim.RegisterGCPolicy("catalog-nil", nil) },
			get:    getter(gc.Policies),
		},
		{
			noun: "arrival process",
			builtins: []string{javasim.ArrivalPoisson, javasim.ArrivalBursty,
				javasim.ArrivalDiurnal},
			names: javasim.ArrivalProcessNames,
			register: func(name string) error {
				return javasim.RegisterArrivalProcess(name, func(javasim.TrafficConfig) (javasim.ArrivalProcess, error) {
					return nil, nil
				})
			},
			regBad: func() error { return javasim.RegisterArrivalProcess("catalog-nil", nil) },
			get:    getter(traffic.Processes),
		},
		{
			noun: "machine model",
			builtins: []string{javasim.MachineOpteron6168, javasim.MachineSparcT3,
				javasim.MachineOpteron6168BW, machine.ModelOpteronFlat},
			def:   javasim.MachineOpteron6168,
			names: javasim.MachineNames,
			register: func(name string) error {
				return javasim.RegisterMachine(name, defaultMachine)
			},
			regBad: func() error { return javasim.RegisterMachine("catalog-invalid", javasim.MachineConfig{}) },
			get:    getter(machine.Models),
		},
	}
	for _, c := range catalogs {
		t.Run(c.noun, func(t *testing.T) {
			if names := c.names(); len(names) < len(c.builtins) || !slices.Equal(names[:len(c.builtins)], c.builtins) {
				t.Errorf("names = %v, want the built-ins %v first", names, c.builtins)
			}

			if c.def == "" {
				if _, err := c.get(""); err == nil {
					t.Error("the empty name resolved")
				}
			} else {
				got, err := c.get("")
				want, _ := c.get(c.def)
				if err != nil || !sameEntry(got, want) {
					t.Errorf(`"" resolved to %v, %v; want the %q entry`, got, err, c.def)
				}
			}

			// A custom entry joins after the built-ins and resolves. The
			// catalogs are process-global, so a repeated run (go test
			// -count=2) finds it already there.
			custom := "catalog-custom"
			if err := c.register(custom); err != nil && !strings.Contains(err.Error(), "already registered") {
				t.Fatal(err)
			}
			if !slices.Contains(c.names()[len(c.builtins):], custom) {
				t.Errorf("names = %v, missing %q after the built-ins", c.names(), custom)
			}
			if _, err := c.get(custom); err != nil {
				t.Error(err)
			}

			known := c.names()
			sort.Strings(known)
			want := fmt.Sprintf("unknown %s %q (known: %s)", c.noun, "nope", strings.Join(known, ", "))
			if _, err := c.get("nope"); err == nil || err.Error() != want {
				t.Errorf("unknown-name error = %v, want %s", err, want)
			}

			for _, name := range c.builtins {
				if err := c.register(name); err == nil || !strings.Contains(err.Error(), "already registered") {
					t.Errorf("re-registering %q: %v", name, err)
				}
			}
			if err := c.register(""); err == nil {
				t.Error("empty name registered")
			}
			if c.regBad != nil {
				if err := c.regBad(); err == nil {
					t.Error("rejected entry registered")
				}
			}
		})
	}
}

// TestFacadePlanFile executes the repository's demo plan file end to end
// — the same file `cmd/javasim -plan testdata/plan.json` runs.
func TestFacadePlanFile(t *testing.T) {
	f, err := os.Open("testdata/plan.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := javasim.LoadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scenarios) < 4 {
		t.Fatalf("scenarios = %d", len(plan.Scenarios))
	}
	eng := javasim.NewEngine()
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Scenario("xalan") == nil || pr.Scenario("custom-analytics") == nil {
		t.Fatal("scenario results missing")
	}
	if len(pr.Reports) != 3 {
		t.Errorf("reports = %d, want 3", len(pr.Reports))
	}
	if got := len(pr.Tables()); got != 6 {
		t.Errorf("tables = %d, want 6 (3 scenario outputs + 3 reports)", got)
	}
	if reps := pr.Scenario("xalan-repeated").Sweeps; len(reps) != 3 {
		t.Errorf("repeat sweeps = %d, want 3", len(reps))
	}
}

// TestFacadePolicyPlanFile executes the lock-policy ablation plan — four
// disciplines over the server workload — and asserts the Dice & Kogan
// effect the redesign exists to surface: the restricted policy shows
// lower contention growth than fifo at the highest thread count, and the
// compare report labels the modified column with its policy.
func TestFacadePolicyPlanFile(t *testing.T) {
	f, err := os.Open("testdata/policies.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := javasim.LoadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4 (one per policy)", len(plan.Scenarios))
	}
	eng := javasim.NewEngine()
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	sweepOf := func(name string) *javasim.Sweep {
		sc := pr.Scenario(name)
		if sc == nil {
			t.Fatalf("scenario %q missing", name)
		}
		return sc.Sweep()
	}
	fifo, restricted := sweepOf("server-fifo"), sweepOf("server-restricted")
	fifoLast := fifo.Points[len(fifo.Points)-1].Result
	restrLast := restricted.Points[len(restricted.Points)-1].Result
	if restrLast.LockContentions >= fifoLast.LockContentions {
		t.Errorf("restricted contentions %d >= fifo %d at %d threads",
			restrLast.LockContentions, fifoLast.LockContentions, fifoLast.Threads)
	}
	fg := fifo.ComputeFactors().ContentionGrowth
	rg := restricted.ComputeFactors().ContentionGrowth
	if rg >= fg {
		t.Errorf("restricted ContentionGrowth %.2fx >= fifo %.2fx", rg, fg)
	}

	// The analytic cross-check the plan's usl-by-policy report makes: the
	// fitted USL contention coefficient must rank the policies the same
	// way the raw contention counters do.
	fifoFit, err := fifo.FitUSL()
	if err != nil {
		t.Fatal(err)
	}
	restrFit, err := restricted.FitUSL()
	if err != nil {
		t.Fatal(err)
	}
	if rs, fs := restrFit.Best().Sigma, fifoFit.Best().Sigma; rs >= fs {
		t.Errorf("restricted fitted sigma %.4f >= fifo %.4f", rs, fs)
	}

	var compare, uslTable *javasim.Table
	for _, tb := range pr.Reports {
		if strings.Contains(tb.Title, "Concurrency restriction") {
			compare = tb
		}
		if strings.Contains(tb.Title, "USL scalability fit") {
			uslTable = tb
		}
	}
	if compare == nil {
		t.Fatal("compare report missing")
	}
	if compare.Headers[2] != "modified [restricted]" {
		t.Errorf("compare header = %q, want policy label", compare.Headers[2])
	}
	if uslTable == nil {
		t.Fatal("usl-by-policy report missing")
	}
	if len(uslTable.Rows) != 4 || uslTable.Headers[2] != "sigma" {
		t.Errorf("usl table shape: %d rows, header[2]=%q; want 4 rows with a sigma column",
			len(uslTable.Rows), uslTable.Headers[2])
	}
}

// TestFacadeSweepAndSuite drives a facade sweep and one figure of the
// paper suite, selected from PaperPlan.
func TestFacadeSweepAndSuite(t *testing.T) {
	eng := javasim.NewEngine()
	spec, _ := javasim.LookupWorkload("jython")
	sw, err := eng.Sweep(context.Background(), spec.Scale(0.02), javasim.SweepConfig{
		ThreadCounts: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Errorf("points = %d", len(sw.Points))
	}
	plan, err := javasim.PaperPlan(javasim.ExperimentConfig{
		ThreadCounts: []int{2, 4},
		Scale:        0.02,
	}).Select("Fig1a")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Reports) != 1 || len(pr.Reports[0].Rows) != 6 {
		t.Errorf("fig1a: %d reports, want 1 with 6 rows", len(pr.Reports))
	}
}

func TestFacadeLockProfiler(t *testing.T) {
	spec, _ := javasim.LookupWorkload("h2")
	prof := javasim.NewLockProfiler()
	eng := javasim.NewEngine()
	_, err := eng.Run(context.Background(), spec.Scale(0.02),
		javasim.Config{Threads: 4, Seed: 1, LockProfiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Summary().Acquisitions == 0 {
		t.Error("profiler saw nothing")
	}
}

// TestFacadeNamesHaveCallers keeps the facade to the names its callers
// use. Every exported function or variable of javasim.go needs one
// caller, and a const group needs one for any of its members. A caller
// is javasim.Name in examples/, cmd/, example_test.go, README.md or
// docs/*.md, or a bare Name in README.md or docs/*.md not preceded by
// '.' or a word character (which would make it a method or field). Type
// aliases are exempt: they name the types of exported signatures and
// fields.
func TestFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "javasim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var code, docs strings.Builder
	read := func(path string, into *strings.Builder) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		into.Write(data)
		into.WriteByte('\n')
	}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				read(path, &code)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	read("example_test.go", &code)
	mds, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"README.md"}, mds...) {
		read(path, &docs)
	}
	called := func(name string) bool {
		q := regexp.QuoteMeta(name)
		return regexp.MustCompile(`\bjavasim\.`+q+`\b`).MatchString(code.String()) ||
			regexp.MustCompile(`(^|[^.\w]|\bjavasim\.)`+q+`\b`).MatchString(docs.String())
	}

	for _, decl := range f.Decls {
		var names []string
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = []string{d.Name.Name}
			}
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						names = append(names, n.Name)
					}
				}
			}
		}
		if len(names) > 0 && !slices.ContainsFunc(names, called) {
			t.Errorf("javasim.go: %s has no caller in examples, cmd, example_test.go, README.md or docs", strings.Join(names, ", "))
		}
	}
}
