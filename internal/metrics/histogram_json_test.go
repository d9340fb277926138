package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestHistogramJSONRoundTrip verifies that a marshal/unmarshal cycle,
// in JSON and in binary, reproduces the histogram exactly — the
// property the sweep-shard worker protocol and the on-disk result store
// depend on.
func TestHistogramJSONRoundTrip(t *testing.T) {
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
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got := NewHistogram("overwritten")
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(h, got) {
			t.Errorf("%s: round trip diverged:\n  in  %#v\n  out %#v", name, h, got)
		}
		// The statistical surface must survive too, not just DeepEqual.
		if h.FractionBelow(1024) != got.FractionBelow(1024) || h.Percentile(99) != got.Percentile(99) {
			t.Errorf("%s: derived statistics diverged after round trip", name)
		}

		bin, err := h.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: append binary: %v", name, err)
		}
		got = NewHistogram("overwritten")
		if err := got.UnmarshalBinary(bin); err != nil {
			t.Fatalf("%s: unmarshal binary: %v", name, err)
		}
		if !reflect.DeepEqual(h, got) {
			t.Errorf("%s: binary round trip diverged:\n  in  %#v\n  out %#v", name, h, got)
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

// TestHistogramJSONRejectsBadBuckets ensures corrupted bucket indexes
// fail decoding loudly instead of clipping silently.
func TestHistogramJSONRejectsBadBuckets(t *testing.T) {
	for _, bad := range []string{
		`{"Buckets":[{"I":65,"N":1}],"Total":1}`,
		`{"Buckets":[{"I":-1,"N":1}],"Total":1}`,
	} {
		h := &Histogram{}
		if err := json.Unmarshal([]byte(bad), h); err == nil {
			t.Errorf("decode %s: want error, got nil", bad)
		}
	}
}
