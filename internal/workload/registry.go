package workload

import (
	"fmt"
	"sync"
)

// The workload registry is the single catalog of every Spec the framework
// knows how to run. The paper's six DaCapo models and the extension
// workloads are pre-registered at init time; downstream users add their
// own models with Register and every consumer — the experiment suite,
// declarative scenario plans, the command-line drivers — resolves them
// through Lookup by name.

var registry = struct {
	mu    sync.RWMutex
	order []string
	specs map[string]Spec
}{specs: make(map[string]Spec)}

// paperOrder lists the six DaCapo benchmarks in the paper's order: the
// scalable trio first, then the non-scalable trio.
var paperOrder = []string{"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"}

func init() {
	for _, s := range []Spec{
		SunflowSpec(), LusearchSpec(), XalanSpec(),
		H2Spec(), EclipseSpec(), JythonSpec(),
		ServerSpec(), ServerContendedSpec(),
	} {
		MustRegister(s)
	}
}

// Register validates the spec and adds it to the registry under its Name.
// Names are unique: registering a name twice — including any of the
// built-in models — is an error, so a registered spec can never be
// silently replaced.
func Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("workload: %q already registered", s.Name)
	}
	registry.specs[s.Name] = s
	registry.order = append(registry.order, s.Name)
	return nil
}

// MustRegister is Register that panics on error — for package init blocks
// that wire in a fixed workload set.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the registered spec with the given name.
func Lookup(name string) (Spec, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s, ok := registry.specs[name]
	return s, ok
}

// Names returns every registered workload name in registration order: the
// six paper benchmarks, the bundled extensions, then user registrations.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

// Registered returns every registered spec in registration order.
func Registered() []Spec {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Spec, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.specs[name])
	}
	return out
}

// PaperSet returns the six DaCapo benchmark specs in the paper's order —
// the experiment set behind every figure and table.
func PaperSet() []Spec {
	out := make([]Spec, 0, len(paperOrder))
	for _, name := range paperOrder {
		s, ok := Lookup(name)
		if !ok {
			panic(fmt.Sprintf("workload: paper benchmark %q missing from registry", name))
		}
		out = append(out, s)
	}
	return out
}

// IsPaperBenchmark reports whether name is one of the paper's six
// benchmarks (as opposed to an extension or user registration).
func IsPaperBenchmark(name string) bool {
	for _, p := range paperOrder {
		if p == name {
			return true
		}
	}
	return false
}
