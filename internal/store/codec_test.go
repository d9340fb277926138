package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"javasim/internal/codec"
	"javasim/internal/metrics"
	"javasim/internal/sim"
	"javasim/internal/traffic"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// resultShape pins the sha256 of vm.Result's encoded shape (every field
// path and type the codec walks) at payload version shapeVersion. The
// payload names no fields, so a changed shape needs a Version bump (as
// does a change to a type's own binary form, which the shape omits).
const (
	shapeVersion = 3
	resultShape  = "6325a2661275a1acb7213e4fc87816311fe5fc7fe99a830feba7dc213d4dd8a3"
)

// TestCodecCoversResult walks every type reachable from vm.Result and
// fails on any the codec cannot encode, or can encode only when nil, so
// a new field of such a type fails here instead of at the first Put. It
// also fails when the shape changes without a Version bump.
func TestCodecCoversResult(t *testing.T) {
	shape := sha256.New()
	err := codec.Walk(reflect.TypeFor[vm.Result](), func(path string, typ reflect.Type) {
		fmt.Fprintln(shape, path, typ)
		if codec.NilOnly(typ) {
			t.Errorf("%s: %s encodes only when nil", path, typ)
		}
	})
	if err != nil {
		t.Error(err)
	}
	got := hex.EncodeToString(shape.Sum(nil))
	if Version != shapeVersion || got != resultShape {
		t.Errorf("vm.Result's encoded shape is %s at Version %d; pinned %s at %d: "+
			"a changed shape needs a Version bump, then pin both anew", got, Version, resultShape, shapeVersion)
	}
}

// fillValue sets every field reachable from v to a non-zero value:
// slices get two elements, pointers a target, histograms samples.
func fillValue(v reflect.Value, n *int64) {
	*n++
	if h, ok := v.Addr().Interface().(*metrics.Histogram); ok {
		*h = *metrics.NewHistogram(fmt.Sprint("h", *n))
		for _, x := range []int64{0, 3, 1 << 20, *n} {
			h.Add(x)
		}
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-*n) // negative, to exercise the zig-zag encoding
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n % 100))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fillValue(v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), n)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillValue(v.Field(i), n)
			}
		}
	}
}

// TestCodecRoundTrip round-trips a result with every field set, then
// one with a nil slice next to an empty one, and checks that the
// decoder rejects every truncation and trailing bytes.
func TestCodecRoundTrip(t *testing.T) {
	full := new(vm.Result)
	var n int64
	fillValue(reflect.ValueOf(full).Elem(), &n)
	rv := reflect.ValueOf(*full)
	for i := range rv.NumField() {
		if rv.Field(i).IsZero() {
			t.Fatalf("fill left %s zero", rv.Type().Field(i).Name)
		}
	}
	if full.Traffic.Latency == nil || full.Traffic.QueueWait == nil || len(full.Traffic.QueueLog) == 0 {
		t.Fatal("fill left Traffic's histograms or QueueLog empty")
	}
	// DeepEqual tells a nil slice from an empty one, so this fails if
	// the codec conflates them.
	sparse := *full
	sparse.PerThreadCPU, sparse.PerThreadBlocked = nil, []sim.Time{}
	sparse.Traffic = &traffic.Stats{QueueLog: []traffic.QueueSample{}}

	for name, res := range map[string]*vm.Result{"full": full, "sparse": &sparse} {
		data, err := codec.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got := new(vm.Result)
		if err := codec.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(res, got) {
			t.Errorf("%s: round trip diverged:\n  in  %+v\n  out %+v", name, res, got)
		}
		for i := range data {
			if err := codec.Unmarshal(data[:i], new(vm.Result)); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded", name, i, len(data))
			}
		}
		if err := codec.Unmarshal(append(data, 0), new(vm.Result)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

// FuzzStoreEntry writes arbitrary bytes at an entry's path, first as
// they are and then as the payload of a valid envelope (byte mutations
// of a whole entry rarely get past the JSON and base64 around the
// payload). Each time, Get must either serve a hit or count one miss
// and one corrupt entry, never panic, and allocate no more than in
// proportion to the input.
func FuzzStoreEntry(f *testing.F) {
	dir := f.TempDir()
	s := mustOpen(f, dir)
	defer s.Close()
	s.Put(fpA, testResult(f, "xalan", 2))
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, fpA[:2], fpA+entryExt)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(valid, &e); err != nil {
		f.Fatal(err)
	}
	envelope := func(payload []byte) []byte {
		data, err := json.Marshal(entry{Version: Version, Fingerprint: fpA, Result: payload})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, seed := range [][]byte{valid, e.Result, envelope(bytes.Repeat([]byte{0xff}, 64))} {
		for _, n := range []int{len(seed), 0, 1, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
			f.Add(seed[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, envelope(data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, hit := s.Get(fpA)
			runtime.ReadMemStats(&m1)
			after := s.Stats()
			if hit {
				if after.Hits != before.Hits+1 || after.Corrupt != before.Corrupt {
					t.Fatalf("hit: stats %+v -> %+v", before, after)
				}
			} else if after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1 {
				t.Fatalf("miss: stats %+v -> %+v, want one miss and one corrupt tick", before, after)
			}
			if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(256<<10+64*len(file)); alloc > limit {
				t.Fatalf("Get of %d bytes allocated %d bytes, limit %d", len(file), alloc, limit)
			}
		}
	})
}

// BenchmarkStoreGet reads back one full-scale 48-thread xalan result
// from disk: the per-point cost of a disk-store hit.
func BenchmarkStoreGet(b *testing.B) {
	spec, _ := workload.Registry.Get("xalan")
	res, err := vm.Run(spec, vm.Config{Threads: 48, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	s := mustOpen(b, dir)
	s.Put(fpA, res)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	s = mustOpen(b, dir)
	defer s.Close()
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.Get(fpA); !ok {
			b.Fatal("miss")
		}
	}
}
