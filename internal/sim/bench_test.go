package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel speed: schedule + fire one
// event per iteration through a warm heap of pending events.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	// Keep a standing population of events so the heap has realistic depth.
	var tick func()
	fired := 0
	tick = func() {
		fired++
		s.Schedule(100, tick)
	}
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

type benchTicker struct {
	s     *Simulator
	fired int
	tick  func() // bound once, like the scheduler's slice timers
}

func (c *benchTicker) onTick() {
	c.fired++
	c.s.Schedule(100, c.tick)
}

// BenchmarkSimSchedule measures the allocation-free hot path: a pooled
// event record carrying a func bound once, scheduled and fired through a
// warm heap. Steady state must report zero allocs/op.
func BenchmarkSimSchedule(b *testing.B) {
	s := New()
	c := &benchTicker{s: s}
	c.tick = c.onTick
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), c.tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkScheduleCancel measures the add/remove path used by quantum
// slicing.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(Time(i+1), fn)
		s.Cancel(ev)
	}
}

// BenchmarkRandUint64 measures the base generator.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// BenchmarkRandLogNormal measures the workload generator's hottest
// distribution.
func BenchmarkRandLogNormal(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.LogNormal(4.5, 0.7)
	}
	_ = sink
}
