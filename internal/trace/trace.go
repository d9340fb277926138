// Package trace produces and consumes object-event traces in the style of
// Elephant Tracks (Ricci, Guyer, Moss — ISMM 2013), the profiling tool the
// paper used to capture per-object allocation and death events (§II-B).
//
// A trace is an in-order stream of events, each stamped with the virtual
// time and the global allocation clock. The binary format is a varint
// delta encoding: compact enough to trace millions of objects, and
// self-describing enough for the tracetool command to inspect.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"javasim/internal/sim"
)

// Kind is the event type.
type Kind uint8

const (
	// Alloc records an object allocation; Size and Clock are set.
	Alloc Kind = iota
	// Death records an object death; Clock is the death clock.
	Death
	// GCStart marks the beginning of a pause; Arg is the gc.Kind and
	// Thread the compartment a minor collection evacuates (-1 for other
	// kinds).
	GCStart
	// GCEnd marks the end of a pause; Arg is its duration in ns.
	GCEnd
	// ThreadStart records a mutator thread starting.
	ThreadStart
	// ThreadEnd records a mutator thread finishing its workload.
	ThreadEnd
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Alloc:
		return "alloc"
	case Death:
		return "death"
	case GCStart:
		return "gc-start"
	case GCEnd:
		return "gc-end"
	case ThreadStart:
		return "thread-start"
	case ThreadEnd:
		return "thread-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	Kind   Kind
	Time   sim.Time
	Thread int32
	Object uint32
	Size   int32
	Clock  int64
	Arg    int64
}

// Sink receives events as the VM emits them.
type Sink interface {
	Emit(Event)
}

// MemorySink buffers events in memory, for tests and small runs.
type MemorySink struct {
	Events []Event
}

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) { m.Events = append(m.Events, ev) }

// magic identifies the binary format; the trailing digit is the version.
var magic = []byte("JSTRACE1")

// Writer encodes events to a binary stream. Events must be written in
// nondecreasing Time order (the simulator guarantees this); times and
// clocks are delta-encoded against the previous event.
type Writer struct {
	w         *bufio.Writer
	buf       [binary.MaxVarintLen64 * 7]byte
	prevTime  sim.Time
	prevClock int64
	count     int64
	err       error
	wroteHdr  bool
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Count returns the number of events written so far.
func (w *Writer) Count() int64 { return w.count }

// Err returns the first write error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Emit implements Sink; encoding errors are sticky and reported by Err and
// Flush.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	if !w.wroteHdr {
		if _, err := w.w.Write(magic); err != nil {
			w.err = err
			return
		}
		w.wroteHdr = true
	}
	if ev.Time < w.prevTime {
		w.err = fmt.Errorf("trace: event at %v before previous %v", ev.Time, w.prevTime)
		return
	}
	n := 0
	n += binary.PutUvarint(w.buf[n:], uint64(ev.Kind))
	n += binary.PutUvarint(w.buf[n:], uint64(ev.Time-w.prevTime))
	n += binary.PutVarint(w.buf[n:], int64(ev.Thread))
	n += binary.PutUvarint(w.buf[n:], uint64(ev.Object))
	n += binary.PutVarint(w.buf[n:], int64(ev.Size))
	n += binary.PutVarint(w.buf[n:], ev.Clock-w.prevClock)
	n += binary.PutVarint(w.buf[n:], ev.Arg)
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		w.err = err
		return
	}
	w.prevTime = ev.Time
	w.prevClock = ev.Clock
	w.count++
}

// Flush drains buffered output and returns the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a binary trace stream.
type Reader struct {
	r         *bufio.Reader
	prevTime  sim.Time
	prevClock int64
	readHdr   bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// ErrBadMagic reports a stream that is not a javasim trace.
var ErrBadMagic = errors.New("trace: bad magic — not a javasim trace")

// Read returns the next event, or io.EOF at a clean end of stream.
func (r *Reader) Read() (Event, error) {
	if !r.readHdr {
		hdr := make([]byte, len(magic))
		if _, err := io.ReadFull(r.r, hdr); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return Event{}, ErrBadMagic
			}
			return Event{}, err
		}
		for i := range hdr {
			if hdr[i] != magic[i] {
				return Event{}, ErrBadMagic
			}
		}
		r.readHdr = true
	}
	kind, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, err // io.EOF here is a clean end
	}
	if kind >= uint64(numKinds) {
		return Event{}, fmt.Errorf("trace: invalid event kind %d", kind)
	}
	dt, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	thread, err := binary.ReadVarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	object, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	size, err := binary.ReadVarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	dClock, err := binary.ReadVarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	arg, err := binary.ReadVarint(r.r)
	if err != nil {
		return Event{}, corrupt(err)
	}
	r.prevTime += sim.Time(dt)
	r.prevClock += dClock
	return Event{
		Kind:   Kind(kind),
		Time:   r.prevTime,
		Thread: int32(thread),
		Object: uint32(object),
		Size:   int32(size),
		Clock:  r.prevClock,
		Arg:    arg,
	}, nil
}

// corrupt converts a mid-record EOF into a corruption error so that callers
// can distinguish truncation from a clean end of stream.
func corrupt(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return err
}
