package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Ref names a workload without committing to where it comes from: either
// a reference to a registered spec by name, or a complete inline Spec.
// Exactly one of the two forms must be set. Refs are how declarative
// scenario plans point at workloads, and their JSON form mirrors the two
// cases — a bare string ("xalan") for a name reference, an object for an
// inline spec.
type Ref struct {
	// Name references a registered workload.
	Name string
	// Spec is a complete inline workload description.
	Spec *Spec
}

// NameRef references a registered workload by name.
func NameRef(name string) Ref { return Ref{Name: name} }

// SpecRef wraps a complete inline spec.
func SpecRef(s Spec) Ref { return Ref{Spec: &s} }

// Resolve returns the referenced spec: the registered spec for a name
// reference (an unknown name is an error that lists the registry), or the
// validated inline spec.
func (r Ref) Resolve() (Spec, error) {
	switch {
	case r.Name != "" && r.Spec != nil:
		return Spec{}, fmt.Errorf("workload: ref sets both name %q and an inline spec", r.Name)
	case r.Spec != nil:
		s := *r.Spec
		if err := s.Validate(); err != nil {
			return Spec{}, err
		}
		return s, nil
	case r.Name != "":
		return Registry.Get(r.Name)
	default:
		return Spec{}, fmt.Errorf("workload: empty ref (need a registered name or an inline spec)")
	}
}

// MarshalJSON encodes a name reference as a JSON string and an inline
// spec as a JSON object.
func (r Ref) MarshalJSON() ([]byte, error) {
	switch {
	case r.Name != "" && r.Spec != nil:
		return nil, fmt.Errorf("workload: ref sets both name %q and an inline spec", r.Name)
	case r.Spec != nil:
		return json.Marshal(r.Spec)
	case r.Name != "":
		return json.Marshal(r.Name)
	default:
		return nil, fmt.Errorf("workload: cannot marshal empty ref")
	}
}

// UnmarshalJSON accepts either form: a string resolves as a registered
// name, an object decodes as an inline Spec (unknown fields rejected).
func (r *Ref) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return fmt.Errorf("workload: empty ref")
	}
	if trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return err
		}
		*r = Ref{Name: name}
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("workload: decode inline spec: %w", err)
	}
	*r = Ref{Spec: &s}
	return nil
}
