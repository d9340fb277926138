package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"javasim/internal/sim"
)

// failingWriter errors after n bytes, injecting mid-stream I/O failure.
type failingWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		ok := f.n - f.written
		if ok < 0 {
			ok = 0
		}
		f.written += ok
		return ok, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriterIOFailureSticky(t *testing.T) {
	fw := &failingWriter{n: 100}
	w := NewWriter(fw)
	// The bufio layer delays the error; Flush must surface it.
	for i := 0; i < 100000; i++ {
		w.Emit(Event{Kind: Alloc, Time: sim.Time(i), Object: uint32(i), Size: 64, Clock: int64(i) * 64})
	}
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Errorf("Flush error = %v, want disk full", err)
	}
	// Further emits are no-ops, not panics.
	w.Emit(Event{Kind: Death, Time: 1 << 40})
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Error("sticky error lost")
	}
}

func TestReaderGarbageAfterValidPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Alloc, Time: 1, Object: 1, Size: 10, Clock: 10})
	w.Flush()
	// Append garbage: an invalid kind varint (200 > numKinds).
	buf.WriteByte(200)
	buf.WriteByte(1)
	r := NewReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatalf("valid prefix failed: %v", err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestAnalyzeCorruptStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Kind: Alloc, Time: 1, Object: 1, Size: 10, Clock: 10})
	w.Flush()
	data := buf.Bytes()
	if _, err := Analyze(context.Background(), NewReader(bytes.NewReader(data[:len(data)-1])), 0); err == nil {
		t.Error("Analyze accepted truncated stream")
	}
}
