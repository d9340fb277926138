// Package registry is the one implementation of the simulator's
// name-keyed catalogs: workloads, lock policies, scheduler placements,
// GC policies, arrival processes and machine models. Each catalog is a
// Registry value that maps unique names to entries; catalogs whose
// entries hold per-run state store factories and mint a fresh instance
// per resolution.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Registry is a concurrency-safe name -> value catalog for one kind of
// entry. The noun ("lock policy", "machine model") labels its errors.
type Registry[T any] struct {
	noun  string
	def   string
	check func(T) error

	mu     sync.RWMutex
	order  []string
	values map[string]T
}

// New returns an empty registry whose errors name entries as noun. Get
// resolves the empty name to defaultName; a registry whose default is ""
// rejects the empty name. check, when non-nil, validates every value
// before it is registered.
func New[T any](noun, defaultName string, check func(T) error) *Registry[T] {
	return &Registry[T]{noun: noun, def: defaultName, check: check, values: make(map[string]T)}
}

// Register adds v under name. The name must be non-empty and unused, so
// an entry can never be silently replaced; v must be non-nil and pass
// the registry's check.
func (r *Registry[T]) Register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("empty %s name", r.noun)
	}
	if isNil(v) {
		return fmt.Errorf("nil %s %q", r.noun, name)
	}
	if r.check != nil {
		if err := r.check(v); err != nil {
			return fmt.Errorf("%s %q: %w", r.noun, name, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.values[name]; dup {
		return fmt.Errorf("%s %q already registered", r.noun, name)
	}
	r.values[name] = v
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register that panics on error — for package init
// blocks wiring in the built-ins.
func (r *Registry[T]) MustRegister(name string, v T) {
	if err := r.Register(name, v); err != nil {
		panic(err)
	}
}

// Get returns the entry registered under name; the empty name selects
// the default. An unknown name is an error listing every known name.
func (r *Registry[T]) Get(name string) (T, error) {
	if name == "" {
		name = r.def
	}
	r.mu.RLock()
	v, ok := r.values[name]
	r.mu.RUnlock()
	if !ok {
		known := r.Names()
		sort.Strings(known)
		return v, fmt.Errorf("unknown %s %q (known: %s)", r.noun, name, strings.Join(known, ", "))
	}
	return v, nil
}

// Validate returns Get's error for name, or nil if name resolves.
func (r *Registry[T]) Validate(name string) error {
	_, err := r.Get(name)
	return err
}

// Names returns every registered name in registration order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// isNil reports a nil interface, func or pointer value.
func isNil(v any) bool {
	if v == nil {
		return true
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Func, reflect.Pointer:
		return rv.IsNil()
	}
	return false
}
