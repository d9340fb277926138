package metrics

import (
	"reflect"
	"testing"
)

// TestHistogramBinaryRoundTrip verifies that a binary marshal/unmarshal
// cycle reproduces the histogram exactly — the property the on-disk
// result store depends on.
func TestHistogramBinaryRoundTrip(t *testing.T) {
	cases := map[string]*Histogram{
		"empty": NewHistogram("empty"),
		"zeros": func() *Histogram {
			h := NewHistogram("zeros")
			h.AddN(0, 7)
			return h
		}(),
		"wide": func() *Histogram {
			h := NewHistogram("wide")
			for _, v := range []int64{1, 2, 3, 1023, 1024, 1 << 40, 1<<62 - 1} {
				h.Add(v)
			}
			h.AddN(4096, 1000)
			return h
		}(),
		"unnamed": func() *Histogram {
			h := &Histogram{}
			h.Add(17)
			return h
		}(),
	}
	for name, h := range cases {
		bin, err := h.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: append binary: %v", name, err)
		}
		got := NewHistogram("overwritten")
		if err := got.UnmarshalBinary(bin); err != nil {
			t.Fatalf("%s: unmarshal binary: %v", name, err)
		}
		if !reflect.DeepEqual(h, got) {
			t.Errorf("%s: round trip diverged:\n  in  %#v\n  out %#v", name, h, got)
		}
		// The statistical surface must survive too, not just DeepEqual.
		if h.FractionBelow(1024) != got.FractionBelow(1024) || h.Percentile(99) != got.Percentile(99) {
			t.Errorf("%s: derived statistics diverged after round trip", name)
		}
	}
}

// TestHistogramBinaryRejectsMalformed checks that every truncation of a
// binary histogram, trailing bytes and an out-of-range bucket index are
// decode errors.
func TestHistogramBinaryRejectsMalformed(t *testing.T) {
	h := NewHistogram("h")
	h.Add(5)
	h.AddN(1<<40, 3)
	bin, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bin {
		if err := new(Histogram).UnmarshalBinary(bin[:i]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", i, len(bin))
		}
	}
	if err := new(Histogram).UnmarshalBinary(append(bin, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// name "", four zero scalars, no data, one bucket at index 65.
	if err := new(Histogram).UnmarshalBinary([]byte{0, 0, 0, 0, 0, 0, 1, 65, 2}); err == nil {
		t.Error("bucket index 65 accepted")
	}
}
