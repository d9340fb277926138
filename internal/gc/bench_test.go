package gc

import (
	"testing"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
)

// BenchmarkCollectMinor measures a minor collection over a mixed
// live/dead young population of 10k objects.
func BenchmarkCollectMinor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := New(StwSerial(), Config{Workers: 8}, h, reg)
		for j := 0; j < 10000; j++ {
			id := reg.Alloc(128, 0)
			c.OnAlloc(id, 0)
			if j%3 != 0 {
				reg.Kill(id)
			}
		}
		b.StartTimer()
		if _, err := c.CollectMinor(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCPolicy measures the minor-collection hot path under every
// registered GC policy, so policy-dispatch overhead regressions are
// visible in the bench smoke.
func BenchmarkGCPolicy(b *testing.B) {
	for _, name := range Policies.Names() {
		b.Run(name, func(b *testing.B) {
			newPolicy, err := Policies.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			p := newPolicy()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
				reg := objmodel.NewRegistry()
				c := New(p, Config{Workers: 8}, h, reg)
				for j := 0; j < 10000; j++ {
					id := reg.Alloc(128, 0)
					c.OnAlloc(id, 0)
					if j%3 != 0 {
						reg.Kill(id)
					}
				}
				b.StartTimer()
				if _, err := c.CollectMinor(0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectFull measures a full collection over a populated old
// generation.
func BenchmarkCollectFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := New(StwSerial(), Config{Workers: 8}, h, reg)
		ids := make([]objmodel.ID, 10000)
		for j := range ids {
			ids[j] = reg.Alloc(256, 0)
			c.OnAlloc(ids[j], 0)
		}
		// Promote everything, then kill half.
		for k := 0; k < 3; k++ {
			if _, err := c.CollectMinor(0, 0); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < len(ids); j += 2 {
			reg.Kill(ids[j])
		}
		b.StartTimer()
		if _, err := c.CollectFull(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinorCycle measures one steady-state young-generation cycle:
// 10k objects allocated, registered through OnAlloc and all dead by the
// collection — the generational common case — then a minor collection
// that frees their slots for the next cycle. Its allocs/op shows the
// registry slots, young-list buffers and dead-slot scratch being reused
// across cycles.
func BenchmarkMinorCycle(b *testing.B) {
	h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
	const n = 10000
	reg := objmodel.NewRegistry()
	c := New(StwSerial(), Config{Workers: 8}, h, reg)
	cycle := func() {
		for j := 0; j < n; j++ {
			id := reg.Alloc(128, 0)
			c.OnAlloc(id, 0)
			reg.Kill(id)
		}
		if _, err := c.CollectMinor(0, 0); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
