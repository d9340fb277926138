// Package codec is a compact binary encoding of a value built from
// booleans, integers, floats, strings, slices, pointers, interfaces and
// structs. The result store writes its payloads with it, and the engine
// hashes a run's spec and canonical config through it. It walks the
// value by reflection:
//
//   - booleans are one byte, 0 or 1;
//   - integers are varints (signed ones zig-zag encoded);
//   - floats are the 8 little-endian bytes of their float64 bits;
//   - strings carry a uvarint length prefix;
//   - slices carry a uvarint of len+1, with 0 for nil, so nil and empty
//     stay distinct and round trips stay reflect.DeepEqual;
//   - pointers carry a presence byte;
//   - an interface encodes only when nil, as one absence byte;
//   - a struct whose pointer implements encoding.BinaryAppender and
//     encoding.BinaryUnmarshaler (metrics.Histogram) is encoded by those
//     methods, length-prefixed; any other struct is its exported fields
//     in declaration order.
//
// Nothing names a field or a type, so only a build with the same schema
// can read an encoding; Walk describes that schema. Every encoded value
// takes at least one byte, which lets the decoder bound each length by
// the bytes left and keep its allocation in proportion to its input.
package codec

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

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

// Marshal encodes the value v points to.
func Marshal(v any) ([]byte, error) {
	return Append(nil, v)
}

// Append appends the encoding of the value v points to to b.
func Append(b []byte, v any) ([]byte, error) {
	return appendValue(b, reflect.ValueOf(v).Elem())
}

// Unmarshal decodes data into the zero value v points to. Truncated
// input, a length past the end, a value out of its type's range and
// trailing bytes are errors, never panics.
func Unmarshal(data []byte, v any) error {
	d := decoder{data}
	if err := d.value(reflect.ValueOf(v).Elem()); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// appendValue appends the encoding of v, which must be addressable so
// that binary methods with pointer receivers can be called.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
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
	case reflect.Interface:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return nil, fmt.Errorf("codec: cannot encode a non-nil %s", v.Type())
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
	return nil, fmt.Errorf("codec: cannot encode %s", v.Type())
}

// errMalformed reports a payload the encoder cannot have produced.
var errMalformed = errors.New("codec: malformed payload")

// decoder reads a payload from the front of b.
type decoder struct{ b []byte }

// flag reads a boolean or a presence byte.
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
	case reflect.Bool:
		f, err := d.flag()
		v.SetBool(f)
		return err
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
	case reflect.Interface:
		// Only a nil interface encodes, so a presence byte of 1 is as
		// malformed as any other.
		if present, err := d.flag(); err != nil || present {
			return errMalformed
		}
		return nil
	case reflect.Struct:
		si := infoOf(v.Type())
		if si.binary {
			n, err := d.length(0)
			if err != nil {
				return err
			}
			if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(d.b[:n]); err != nil {
				return fmt.Errorf("codec: decode %s: %w", v.Type(), err)
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
	return fmt.Errorf("codec: cannot decode %s", v.Type())
}

// NilOnly reports whether values of type t encode only when nil:
// interfaces, and structs with neither exported fields nor binary
// methods, which a pointer can still hold as nil.
func NilOnly(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Struct:
		si := infoOf(t)
		return !si.binary && len(si.fields) == 0
	}
	return false
}

// Walk calls visit for t and every type the codec reaches from it, in
// encoding order, with its path: the root is t's name, a struct field
// appends "." and the field name, and a slice or pointer element
// appends "[]". Types with binary methods and NilOnly types are visited
// but not entered. The lines "path type" of a walk are therefore the
// schema an encoding of t depends on. Walk returns an error for each
// kind the codec can never encode and for a recursive type.
func Walk(t reflect.Type, visit func(path string, t reflect.Type)) error {
	var errs []error
	onPath := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		visit(path, t)
		if onPath[t] {
			errs = append(errs, fmt.Errorf("%s: recursive type %s", path, t))
			return
		}
		onPath[t] = true
		defer delete(onPath, t)
		switch t.Kind() {
		case reflect.Bool, reflect.String, reflect.Interface,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Slice, reflect.Pointer:
			walk(t.Elem(), path+"[]")
		case reflect.Struct:
			for _, i := range infoOf(t).fields {
				f := t.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		default:
			errs = append(errs, fmt.Errorf("%s: kind %s (%s) cannot be encoded", path, t.Kind(), t))
		}
	}
	walk(t, t.Name())
	return errors.Join(errs...)
}
