package store

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The payload codec is a compact binary encoding of a value built from
// integers, floats, strings, slices, pointers and structs. It
// walks the value by reflection:
//
//   - integers are varints (signed ones zig-zag encoded);
//   - floats are the 8 little-endian bytes of their float64 bits;
//   - strings carry a uvarint length prefix;
//   - slices carry a uvarint of len+1, with 0 for nil, so nil and empty
//     stay distinct and round trips stay reflect.DeepEqual;
//   - pointers carry a presence byte;
//   - a struct whose pointer implements encoding.BinaryAppender and
//     encoding.BinaryUnmarshaler (metrics.Histogram) is encoded by those
//     methods, length-prefixed; any other struct is its exported fields
//     in declaration order.
//
// Nothing names a field or a type, so only a build with the same result
// schema can read a payload; the entry's Version guards that. Every
// encoded value takes at least one byte, which lets the decoder bound
// each length by the bytes left and keep its allocation in proportion
// to its input.

var (
	appenderType    = reflect.TypeFor[encoding.BinaryAppender]()
	unmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// structInfo is what the codec needs to know about one struct type.
type structInfo struct {
	binary bool  // *T implements both binary interfaces
	fields []int // exported field indexes, in declaration order
}

var structInfos sync.Map // reflect.Type -> *structInfo, filled once per type

func infoOf(t reflect.Type) *structInfo {
	if si, ok := structInfos.Load(t); ok {
		return si.(*structInfo)
	}
	pt := reflect.PointerTo(t)
	si := &structInfo{binary: pt.Implements(appenderType) && pt.Implements(unmarshalerType)}
	if !si.binary {
		for i := range t.NumField() {
			if t.Field(i).IsExported() {
				si.fields = append(si.fields, i)
			}
		}
	}
	structInfos.Store(t, si)
	return si
}

// marshal encodes the value v points to.
func marshal(v any) ([]byte, error) {
	return appendValue(nil, reflect.ValueOf(v).Elem())
}

// unmarshal decodes data into the zero value v points to. Truncated
// input, a length past the end, a value out of its type's range and
// trailing bytes are errors, never panics.
func unmarshal(data []byte, v any) error {
	d := decoder{data}
	if err := d.value(reflect.ValueOf(v).Elem()); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("store: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// appendValue appends the encoding of v, which must be addressable so
// that binary methods with pointer receivers can be called.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := range v.Len() {
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Struct:
		si := infoOf(v.Type())
		if si.binary {
			data, err := v.Addr().Interface().(encoding.BinaryAppender).AppendBinary(nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.Type(), err)
			}
			return append(binary.AppendUvarint(b, uint64(len(data))), data...), nil
		}
		if len(si.fields) == 0 {
			break
		}
		for _, i := range si.fields {
			if b, err = appendValue(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("cannot encode %s", v.Type())
}

// errMalformed reports a payload the encoder cannot have produced.
var errMalformed = errors.New("store: malformed payload")

// decoder reads a payload from the front of b.
type decoder struct{ b []byte }

// flag reads a pointer's presence byte.
func (d *decoder) flag() (bool, error) {
	if len(d.b) == 0 || d.b[0] > 1 {
		return false, errMalformed
	}
	f := d.b[0] == 1
	d.b = d.b[1:]
	return f, nil
}

// length reads a uvarint that must not exceed the bytes left after it
// plus slack.
func (d *decoder) length(slack int) (int, error) {
	n, k := binary.Uvarint(d.b)
	if k <= 0 || n > uint64(len(d.b)-k+slack) {
		return 0, errMalformed
	}
	d.b = d.b[k:]
	return int(n), nil
}

// value decodes into v, which must be settable and hold its zero value.
func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, k := binary.Varint(d.b)
		if k <= 0 || v.OverflowInt(x) {
			return errMalformed
		}
		d.b = d.b[k:]
		v.SetInt(x)
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, k := binary.Uvarint(d.b)
		if k <= 0 || v.OverflowUint(x) {
			return errMalformed
		}
		d.b = d.b[k:]
		v.SetUint(x)
		return nil
	case reflect.Float32, reflect.Float64:
		if len(d.b) < 8 {
			return errMalformed
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		if v.OverflowFloat(f) {
			return errMalformed
		}
		d.b = d.b[8:]
		v.SetFloat(f)
		return nil
	case reflect.String:
		n, err := d.length(0)
		if err != nil {
			return err
		}
		v.SetString(string(d.b[:n]))
		d.b = d.b[n:]
		return nil
	case reflect.Slice:
		n, err := d.length(1) // len+1, or 0 for nil
		if err != nil || n == 0 {
			return err
		}
		s := reflect.MakeSlice(v.Type(), n-1, n-1)
		for i := range n - 1 {
			if err := d.value(s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	case reflect.Pointer:
		present, err := d.flag()
		if err != nil || !present {
			return err
		}
		p := reflect.New(v.Type().Elem())
		if err := d.value(p.Elem()); err != nil {
			return err
		}
		v.Set(p)
		return nil
	case reflect.Struct:
		si := infoOf(v.Type())
		if si.binary {
			n, err := d.length(0)
			if err != nil {
				return err
			}
			if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(d.b[:n]); err != nil {
				return fmt.Errorf("store: decode %s: %w", v.Type(), err)
			}
			d.b = d.b[n:]
			return nil
		}
		if len(si.fields) == 0 {
			break
		}
		for _, i := range si.fields {
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("store: cannot decode %s", v.Type())
}
