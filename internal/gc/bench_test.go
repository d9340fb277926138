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
		reg := objmodel.NewRegistry(10000)
		c := New(Config{Workers: 8}, h, reg)
		for j := 0; j < 10000; j++ {
			id := reg.Alloc(128, 0, 0)
			c.OnAlloc(id, 0)
			if j%3 != 0 {
				reg.Kill(id, 0)
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
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
				reg := objmodel.NewRegistry(10000)
				c := NewWithPolicy(p, Config{Workers: 8}, h, reg)
				for j := 0; j < 10000; j++ {
					id := reg.Alloc(128, 0, 0)
					c.OnAlloc(id, 0)
					if j%3 != 0 {
						reg.Kill(id, 0)
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
		reg := objmodel.NewRegistry(10000)
		c := New(Config{Workers: 8}, h, reg)
		for j := 0; j < 10000; j++ {
			id := reg.Alloc(256, 0, 0)
			c.OnAlloc(id, 0)
		}
		// Promote everything, then kill half.
		for k := 0; k < 3; k++ {
			if _, err := c.CollectMinor(0, 0); err != nil {
				b.Fatal(err)
			}
		}
		reg.ForEach(func(id objmodel.ID, o *objmodel.Object) {
			if id%2 == 0 && o.Live() {
				reg.Kill(id, 0)
			}
		})
		b.StartTimer()
		if _, err := c.CollectFull(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinorCycle measures one steady-state young-generation cycle:
// 10k objects registered through OnAlloc, all dead by the collection —
// the generational common case — then a minor collection. Its allocs/op
// shows the young-list buffers being reused across cycles.
func BenchmarkMinorCycle(b *testing.B) {
	h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
	const n = 10000
	reg := objmodel.NewRegistry(n)
	c := New(Config{Workers: 8}, h, reg)
	ids := make([]objmodel.ID, n)
	for j := range ids {
		ids[j] = reg.Alloc(128, 0, 0)
		reg.Kill(ids[j], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			c.OnAlloc(id, 0)
		}
		if _, err := c.CollectMinor(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
