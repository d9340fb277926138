package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"javasim/internal/workload"
)

// TestUSLCrossValidation is the analytic-vs-ablation agreement test
// (ROADMAP item 1): fit the six PaperSet workload sweeps and check the
// fitted parameters against the factor table's independent, ablation-
// style decomposition. Contention-bound workloads must rank the same by
// fitted sigma as by the factor table's sequential fraction, and the
// GC-bound non-scalable pair must carry the dominant coherency terms.
func TestUSLCrossValidation(t *testing.T) {
	eng := NewEngine()
	sigma := map[string]float64{}
	kappa := map[string]float64{}
	seqFrac := map[string]float64{}
	for _, w := range workload.PaperSet() {
		cfg := SweepConfig{ThreadCounts: []int{2, 4, 8}}
		cfg.Base.Seed = 13
		sw, err := eng.Sweep(context.Background(), w.Scale(0.04), cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sw.FitUSL()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m := f.Best()
		if math.IsNaN(m.Sigma) || math.IsNaN(m.Kappa) || m.Sigma < 0 || m.Kappa < 0 {
			t.Fatalf("%s: degenerate fit %+v", w.Name, m)
		}
		if m.R2 < 0.9 {
			t.Errorf("%s: R2 %.4f — the law should explain a simulated sweep", w.Name, m.R2)
		}
		sigma[w.Name], kappa[w.Name] = m.Sigma, m.Kappa
		seqFrac[w.Name] = sw.ComputeFactors().SequentialFraction
	}

	// The contention-bound workloads (the scalable trio plus h2, whose
	// non-scalability the paper ties to serialization) must rank
	// identically by fitted sigma and by the factor table's Amdahl
	// sequential fraction — the same ordering recovered two independent
	// ways. Eclipse and jython are excluded from the rank check: their
	// losses are GC-shaped (kappa), not serialization-shaped.
	contentionBound := []string{"sunflow", "lusearch", "xalan", "h2"}
	bySigma := append([]string(nil), contentionBound...)
	byFrac := append([]string(nil), contentionBound...)
	sort.SliceStable(bySigma, func(i, j int) bool { return sigma[bySigma[i]] < sigma[bySigma[j]] })
	sort.SliceStable(byFrac, func(i, j int) bool { return seqFrac[byFrac[i]] < seqFrac[byFrac[j]] })
	for i := range bySigma {
		if bySigma[i] != byFrac[i] {
			t.Fatalf("sigma ordering %v disagrees with factor-table sequential-fraction ordering %v\nsigma=%v seqFrac=%v",
				bySigma, byFrac, sigma, seqFrac)
		}
	}

	// The GC-bound non-scalable pair must fit clearly larger coherency
	// terms than every contention-bound workload.
	gcBound := math.Min(kappa["eclipse"], kappa["jython"])
	for _, name := range contentionBound {
		if gcBound <= 2*kappa[name] {
			t.Errorf("kappa(%s)=%.3e not clearly below the GC-bound floor %.3e", name, kappa[name], gcBound)
		}
	}

	// And the scalable trio must fit near-zero contention while h2 —
	// the paper's serialization-bound workload — fits an order of
	// magnitude more.
	for _, name := range []string{"sunflow", "lusearch", "xalan"} {
		if sigma[name] >= 0.1 {
			t.Errorf("sigma(%s)=%.4f — scalable workloads should fit low contention", name, sigma[name])
		}
	}
	if sigma["h2"] < 10*sigma["xalan"] {
		t.Errorf("sigma(h2)=%.4f not clearly above the scalable trio (xalan %.4f)", sigma["h2"], sigma["xalan"])
	}
}

// TestPolicySigmaOrdering pins the tentpole's marquee claim on the
// lock-policy ablation: on the contended server workload, Dice & Kogan's
// restricted policy must fit a lower contention coefficient than the
// fifo baseline — the analytic echo of its lower contention growth in
// the factor table.
func TestPolicySigmaOrdering(t *testing.T) {
	eng := NewEngine()
	fit := func(policy string) float64 {
		spec, err := workload.Registry.Get("server-contended")
		if err != nil {
			t.Fatal("server-contended not registered")
		}
		cfg := SweepConfig{ThreadCounts: []int{4, 16, 32}}
		cfg.Base.Seed = 42
		cfg.Base.LockPolicy = policy
		sw, err := eng.Sweep(context.Background(), spec.Scale(0.1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sw.FitUSL()
		if err != nil {
			t.Fatal(err)
		}
		return f.Best().Sigma
	}
	fifo, restricted := fit(""), fit("restricted")
	if restricted >= fifo {
		t.Errorf("restricted sigma %.4f >= fifo sigma %.4f — concurrency restriction should cut the fitted contention term", restricted, fifo)
	}
}

// TestGoldenUSLPlan locks the rendered usl report and output bytes at a
// tiny fixed configuration, through the same declarative path plan files
// take. Run `go test ./internal/core/ -run TestGoldenUSL -update` to
// accept deliberate changes.
func TestGoldenUSLPlan(t *testing.T) {
	p := &Plan{
		Name:         "usl-golden",
		Seed:         7,
		Scale:        0.05,
		ThreadCounts: []int{2, 4, 8},
		Scenarios: []Scenario{
			{Name: "fifo", Workload: workload.NameRef("server-contended"), Outputs: []Output{OutputUSL}},
			{Name: "restricted", Workload: workload.NameRef("server-contended"),
				Overrides: &ConfigOverrides{LockPolicy: "restricted"}},
		},
		Reports: []ReportSpec{{Name: "usl", Kind: ReportUSL}},
	}
	pr, err := NewEngine().RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range pr.Tables() {
		if err := tb.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "usl.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing — run with -update to create it: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("usl artifact output changed:\n got:\n%s\nwant:\n%s\n(run with -update to accept)", got, want)
	}
}
