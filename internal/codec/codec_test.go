package codec

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

type flags struct {
	On, Off bool
	N       int
	Sink    io.Writer
	Ptr     *flags
}

// TestCodecBoolRoundTrip round-trips both boolean values, each as one
// byte, next to a nil interface and a nil pointer, one absence byte each.
func TestCodecBoolRoundTrip(t *testing.T) {
	in := flags{On: true, N: -3}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 0, 5, 0, 0}; string(data) != string(want) {
		t.Fatalf("encoding = %v, want %v", data, want)
	}
	var out flags
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v -> %+v", in, out)
	}
}

// TestCodecRejectsNonBinaryBytes checks that a boolean or interface
// position holding anything but the bytes the encoder writes is
// malformed.
func TestCodecRejectsNonBinaryBytes(t *testing.T) {
	for _, data := range [][]byte{
		{2, 0, 0, 0, 0},    // On
		{0, 0xff, 0, 0, 0}, // Off
		{1, 0, 0, 1, 0},    // Sink present
		{1, 0, 0, 2, 0},    // Sink
	} {
		if err := Unmarshal(data, new(flags)); !errors.Is(err, errMalformed) {
			t.Errorf("Unmarshal(%v) = %v, want errMalformed", data, err)
		}
	}
}

// TestCodecEncodeErrors checks that a non-nil interface, a map and a
// func fail to encode instead of encoding something a decoder cannot
// read back.
func TestCodecEncodeErrors(t *testing.T) {
	for name, v := range map[string]any{
		"interface": &flags{Sink: io.Discard},
		"map":       &map[string]int{},
		"func":      &struct{ F func() }{},
	} {
		if _, err := Marshal(v); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestWalk checks the paths Walk reports, that it does not enter
// NilOnly types, and that it names every kind it cannot encode.
func TestWalk(t *testing.T) {
	var lines []string
	err := Walk(reflect.TypeFor[flags](), func(path string, typ reflect.Type) {
		lines = append(lines, fmt.Sprint(path, " ", typ))
	})
	if got := strings.Join(lines, "; "); !strings.HasSuffix(got, "flags.Ptr[] codec.flags") {
		t.Errorf("walk = %s", got)
	}
	if err == nil || !strings.Contains(err.Error(), "recursive type") {
		t.Errorf("recursive type not reported: %v", err)
	}
	if !NilOnly(reflect.TypeFor[io.Writer]()) || !NilOnly(reflect.TypeFor[struct{ x int }]()) || NilOnly(reflect.TypeFor[flags]()) {
		t.Error("NilOnly misclassifies")
	}
	type bad struct {
		M map[string]int
		F func()
	}
	err = Walk(reflect.TypeFor[bad](), func(string, reflect.Type) {})
	if err == nil || !strings.Contains(err.Error(), "bad.M") || !strings.Contains(err.Error(), "bad.F") {
		t.Errorf("Walk(bad) = %v, want errors naming M and F", err)
	}
}
