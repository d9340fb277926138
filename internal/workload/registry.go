package workload

import (
	"fmt"

	"javasim/internal/registry"
)

// Registry is the single catalog of every Spec the framework knows how
// to run. The paper's six DaCapo models and the extension workloads are
// pre-registered at init time; downstream users add their own models
// and every consumer — the experiment suite, declarative scenario
// plans, the command-line drivers — resolves them by name. Registration
// validates the spec. There is no default workload: the empty name is
// rejected.
var Registry = registry.New[Spec]("workload", "", func(s Spec) error { return s.Validate() })

// paperOrder lists the six DaCapo benchmarks in the paper's order: the
// scalable trio first, then the non-scalable trio.
var paperOrder = []string{"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"}

func init() {
	for _, s := range []Spec{
		SunflowSpec(), LusearchSpec(), XalanSpec(),
		H2Spec(), EclipseSpec(), JythonSpec(),
		ServerSpec(), ServerContendedSpec(),
	} {
		Registry.MustRegister(s.Name, s)
	}
}

// PaperSet returns the six DaCapo benchmark specs in the paper's order —
// the experiment set behind every figure and table.
func PaperSet() []Spec {
	out := make([]Spec, 0, len(paperOrder))
	for _, name := range paperOrder {
		s, err := Registry.Get(name)
		if err != nil {
			panic(fmt.Sprintf("workload: paper benchmark: %v", err))
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
