package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"javasim/internal/sim"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// keyLeaf is one field the fingerprint encodes: a scalar, or a pointer
// or interface that a cacheable config holds nil.
type keyLeaf struct {
	path string
	v    reflect.Value
}

// keyLeaves appends every leaf field reachable from the settable struct
// v, in encoding order.
func keyLeaves(t testing.TB, v reflect.Value, path string, out []keyLeaf) []keyLeaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				out = keyLeaves(t, v.Field(i), path+"."+f.Name, out)
			}
		}
		return out
	case reflect.Bool, reflect.String, reflect.Pointer, reflect.Interface,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float64:
		return append(out, keyLeaf{path, v})
	}
	t.Fatalf("%s: unexpected kind %s", path, v.Kind())
	return nil
}

// bump changes the scalar v to a different value; a float changes its
// lowest bit, so even a NaN encodes differently.
func bump(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	}
}

// fingerprintFields lists the leaves of spec and of the canonical
// config canon, pointing into them.
func fingerprintFields(t testing.TB, spec *workload.Spec, canon *vm.Config) []keyLeaf {
	out := keyLeaves(t, reflect.ValueOf(spec).Elem(), "Spec", nil)
	return keyLeaves(t, reflect.ValueOf(canon).Elem(), "Config", out)
}

// TestFingerprintCoversEveryField sets each leaf field of a workload
// spec and of a canonical config to another value, one at a time, and
// requires a new fingerprint every time: no field the run depends on
// can be left out of its cache key. The only leaves that are not
// scalars are the two sinks, which make a run uncacheable.
func TestFingerprintCoversEveryField(t *testing.T) {
	spec := testSpec(t, "xalan", 0.05)
	canon := vm.Config{Threads: 16, Seed: 3}.Canonical()
	base, ok := canonKey(spec, canon)
	if !ok {
		t.Fatal("plain config should be cacheable")
	}
	seen := map[string]string{base: "the unchanged run"}
	var sinks []string
	for i, leaf := range fingerprintFields(t, &spec, &canon) {
		if k := leaf.v.Kind(); k == reflect.Pointer || k == reflect.Interface {
			sinks = append(sinks, leaf.path)
			continue
		}
		s, c := spec, canon
		bump(fingerprintFields(t, &s, &c)[i].v)
		key, ok := canonKey(s, c)
		if !ok {
			t.Errorf("%s: changed run is not cacheable", leaf.path)
			continue
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s fingerprints like %s", leaf.path, prev)
		}
		seen[key] = "changing " + leaf.path
	}
	if want := []string{"Config.TraceSink", "Config.LockProfiler"}; !slices.Equal(sinks, want) {
		t.Errorf("non-scalar leaves = %v, want %v", sinks, want)
	}
}

// TestFingerprintAllocs holds a fingerprint to its hex string and at
// most one more allocation.
func TestFingerprintAllocs(t *testing.T) {
	spec := testSpec(t, "xalan", 1)
	cfg := vm.Config{Threads: 48, Seed: 42}
	if n := testing.AllocsPerRun(100, func() { Fingerprint(spec, cfg) }); n > 2 {
		t.Errorf("Fingerprint allocates %v times per call, want <= 2", n)
	}
}

// BenchmarkFingerprint keys one full-scale 48-thread xalan run: the
// per-lookup cost every cache tier pays.
func BenchmarkFingerprint(b *testing.B) {
	spec := testSpec(b, "xalan", 1)
	cfg := vm.Config{Threads: 48, Seed: 42}
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := Fingerprint(spec, cfg); !ok {
			b.Fatal("not cacheable")
		}
	}
}

// FuzzFingerprint sets scalar fields of a spec and a config. The
// fingerprint must not panic, must be the same when computed twice, and
// must change when one fuzzed field of the spec or of the canonical
// config changes. A thread sweep and a rate sweep over the config must
// fingerprint each point as Fingerprint does, when the memo misses and
// when it hits.
func FuzzFingerprint(f *testing.F) {
	f.Add("xalan", 1000, int64(20000), 0.5, 8, 0, 3.0, "", "", false, uint64(42), uint8(0), "", 0.0, uint8(0))
	f.Add("", -1, int64(-1), math.NaN(), 0, -3, math.Inf(1), "concurrent", "sparc-t3-4", true, uint64(0), uint8(255), "poisson", 1e9, uint8(7))
	f.Add("h2", 1<<40, int64(1)<<62, -0.0, 1<<20, 48, 0.0, "compartment", "vax-780", true, ^uint64(0), uint8(15), "bursty", -5.0, uint8(8))
	base, _ := workload.Registry.Get("xalan")
	f.Fuzz(func(t *testing.T, name string, units int, compute int64, cv float64,
		threads, cores int, heap float64, gcPolicy, machineName string, pretenure bool, seed uint64,
		tenuring uint8, process string, rate float64, which uint8) {
		spec := base
		spec.Name, spec.TotalUnits, spec.UnitCompute, spec.ComputeCV = name, units, sim.Time(compute), cv
		cfg := vm.Config{Threads: threads, Cores: cores, HeapFactor: heap, GCPolicy: gcPolicy,
			MachineName: machineName, Pretenuring: pretenure, Seed: seed}
		cfg.GC.TenuringThreshold = tenuring
		cfg.Traffic.Process, cfg.Traffic.RatePerSec = process, rate
		key, ok := Fingerprint(spec, cfg)
		if again, ok2 := Fingerprint(spec, cfg); !ok || !ok2 || key != again {
			t.Fatalf("fingerprints %q (%v) then %q (%v)", key, ok, again, ok2)
		}
		canon := cfg.Canonical()
		fields := []reflect.Value{
			reflect.ValueOf(&spec.Name), reflect.ValueOf(&spec.TotalUnits),
			reflect.ValueOf(&spec.UnitCompute), reflect.ValueOf(&spec.ComputeCV),
			reflect.ValueOf(&canon.Threads), reflect.ValueOf(&canon.Cores),
			reflect.ValueOf(&canon.HeapFactor), reflect.ValueOf(&canon.GCPolicy),
			reflect.ValueOf(&canon.MachineName),
			reflect.ValueOf(&canon.Pretenuring), reflect.ValueOf(&canon.Seed),
			reflect.ValueOf(&canon.GC.TenuringThreshold), reflect.ValueOf(&canon.Traffic.Process),
			reflect.ValueOf(&canon.Traffic.RatePerSec),
		}
		before, _ := canonKey(spec, canon)
		field := fields[int(which)%len(fields)].Elem()
		bump(field)
		if after, ok := canonKey(spec, canon); !ok || after == before {
			t.Fatalf("changing fuzzed field %d (%s) left the fingerprint %q", int(which)%len(fields), field.Type(), after)
		}

		eng := NewEngine()
		for _, sc := range []SweepConfig{
			{ThreadCounts: []int{threads, cores}, Base: cfg},
			{Rates: []float64{rate, heap}, Base: cfg},
		} {
			for _, hit := range []bool{false, true} {
				x := &execution{}
				sw := x.add(eng.compileSweep(spec, sc, nil))
				checkPrints(t, "fuzzed sweep", x, hit)
				eng.memoize(sw)
				x.release(eng)
			}
		}
	})
}
