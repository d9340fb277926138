package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"javasim/internal/sim"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: ThreadStart, Time: 0, Thread: 0},
		{Kind: Alloc, Time: 100, Thread: 0, Object: 1, Size: 128, Clock: 128},
		{Kind: Alloc, Time: 150, Thread: 1, Object: 2, Size: 64, Clock: 192},
		{Kind: Death, Time: 200, Thread: 0, Object: 1, Clock: 192},
		{Kind: GCStart, Time: 300, Arg: 0},
		{Kind: GCEnd, Time: 301, Arg: 1500},
		{Kind: Death, Time: 400, Thread: 1, Object: 2, Clock: 192},
		{Kind: ThreadEnd, Time: 500, Thread: 0},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	events := sampleEvents()
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(events)) {
		t.Errorf("count = %d, want %d", w.Count(), len(events))
	}
	r := NewReader(&buf)
	for i, want := range events {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("expected clean EOF, got %v", err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Alloc, Time: 100})
	w.Emit(Event{Kind: Alloc, Time: 50})
	if w.Err() == nil {
		t.Error("out-of-order event accepted")
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush did not report the sticky error")
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTATRACEFILE")))
	if _, err := r.Read(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range sampleEvents() {
		w.Emit(ev)
	}
	w.Flush()
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-3]))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if errors.Is(err, io.EOF) {
		t.Error("truncated stream reported clean EOF")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF wrap", err)
	}
}

func TestMemorySink(t *testing.T) {
	var m MemorySink
	for _, ev := range sampleEvents() {
		m.Emit(ev)
	}
	if len(m.Events) != len(sampleEvents()) {
		t.Errorf("sink captured %d events", len(m.Events))
	}
}

func TestAnalyze(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range sampleEvents() {
		w.Emit(ev)
	}
	w.Flush()
	a, err := Analyze(context.Background(), NewReader(&buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Allocs != 2 || a.Deaths != 2 || a.GCs != 1 {
		t.Errorf("analysis %+v", a)
	}
	if a.Leaked != 0 {
		t.Errorf("leaked = %d, want 0", a.Leaked)
	}
	// Object 1: born at clock 128, died at 192 → lifespan 64.
	// Object 2: born at 192, died at 192 → lifespan 0.
	if a.Lifespans.Total() != 2 {
		t.Fatalf("lifespan samples = %d", a.Lifespans.Total())
	}
	if a.Lifespans.Max() != 64 || a.Lifespans.Min() != 0 {
		t.Errorf("lifespan min/max = %d/%d, want 0/64", a.Lifespans.Min(), a.Lifespans.Max())
	}
}

func TestAnalyzeLeaked(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Alloc, Time: 1, Object: 7, Size: 10, Clock: 10})
	w.Flush()
	a, err := Analyze(context.Background(), NewReader(&buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Leaked != 1 {
		t.Errorf("leaked = %d, want 1", a.Leaked)
	}
}

func TestAnalyzeUnknownDeath(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Death, Time: 1, Object: 9, Clock: 0})
	w.Flush()
	if _, err := Analyze(context.Background(), NewReader(&buf), 0); err == nil {
		t.Error("death of unknown object accepted")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Alloc: "alloc", Death: "death", GCStart: "gc-start",
		GCEnd: "gc-end", ThreadStart: "thread-start", ThreadEnd: "thread-end",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// Property: any monotone-time event sequence round-trips identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var events []Event
		tm := sim.Time(0)
		clock := int64(0)
		for i, v := range raw {
			tm += sim.Time(v % 1000)
			clock += int64(v % 512)
			events = append(events, Event{
				Kind:   Kind(v % uint32(numKinds)),
				Time:   tm,
				Thread: int32(v % 64),
				Object: uint32(i),
				Size:   int32(v % 4096),
				Clock:  clock,
				Arg:    int64(v),
			})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range events {
			w.Emit(ev)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, want := range events {
			got, err := r.Read()
			if err != nil || got != want {
				return false
			}
		}
		_, err := r.Read()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: analysis lifespans are exactly death.Clock - alloc.Clock for
// every paired object.
func TestAnalyzeLifespanProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		clock := int64(0)
		tm := sim.Time(0)
		var want []int64
		for i, g := range gaps {
			tm++
			clock += 100
			birth := clock
			w.Emit(Event{Kind: Alloc, Time: tm, Object: uint32(i), Size: 100, Clock: clock})
			tm++
			clock += int64(g)
			w.Emit(Event{Kind: Death, Time: tm, Object: uint32(i), Clock: clock})
			want = append(want, clock-birth)
		}
		if w.Flush() != nil {
			return false
		}
		a, err := Analyze(context.Background(), NewReader(&buf), 0)
		if err != nil {
			return false
		}
		if a.Lifespans.Total() != int64(len(want)) {
			return false
		}
		var sum int64
		for _, v := range want {
			sum += v
		}
		return a.Lifespans.Sum() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
