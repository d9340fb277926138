package machine

import (
	"fmt"

	"javasim/internal/registry"
	"javasim/internal/sim"
)

// Model is a named, registrable machine description: a Config plus the
// topology hooks a plain Config cannot express. Models are stateless;
// per-run state (core utilization, bandwidth clocks) lives in the Machine
// built from one via NewFromModel.
type Model interface {
	// Name is the registry key, e.g. "opteron-6168".
	Name() string
	// Config returns the machine configuration.
	Config() Config
	// Distance returns the number of interconnect hops between two
	// sockets. Same-socket distance must be 0.
	Distance(socketA, socketB int) int
}

// Registry names for the built-in machine models.
const (
	// DefaultModel is the paper's testbed, the four-socket Opteron 6168.
	DefaultModel = "opteron-6168"
	// ModelSparcT3 is a four-socket SPARC T3-4 CMT system: 16 cores per
	// socket, 8 hardware threads per core sharing a dual-issue pipeline,
	// 512 hardware threads total.
	ModelSparcT3 = "sparc-t3-4"
	// ModelOpteronBW is the Opteron 6168 testbed with a finite per-socket
	// memory-bandwidth budget, so allocation and GC copy traffic past the
	// ceiling stretches memory stalls.
	ModelOpteronBW = "opteron-6168-bw"
	// ModelOpteronFlat is the Opteron 6168 testbed as a hypothetical flat
	// (uniform-memory) machine: the counterfactual that isolates what the
	// NUMA model contributes.
	ModelOpteronFlat = "opteron-6168-flat"
)

// basicModel is a Model with a flat (0/1 hop) topology, sufficient for
// the built-ins and most user machines.
type basicModel struct {
	name string
	cfg  Config
}

func (m basicModel) Name() string                      { return m.name }
func (m basicModel) Config() Config                    { return m.cfg }
func (m basicModel) Distance(socketA, socketB int) int { return defaultDistance(socketA, socketB) }

// NewModel wraps a Config as a Model with the default flat 0/1 socket
// distance. Implement the Model interface directly to supply a routed
// multi-hop topology.
func NewModel(name string, cfg Config) Model { return basicModel{name: name, cfg: cfg} }

// SparcT3_4 returns the configuration of a four-socket SPARC T3-4: 16
// cores per socket, 8 strands per core sharing a dual-issue pipeline (512
// hardware threads), 512 GB RAM. Per-strand throughput is a fraction of
// an Opteron core's, and memory latencies are higher — the machine trades
// single-thread speed for thread count.
func SparcT3_4() Config {
	return Config{
		Sockets:            4,
		CoresPerSocket:     16,
		ThreadsPerCore:     8,
		IssueWidth:         2,
		MemoryPerNode:      128 << 30, // 512 GB / 4 nodes
		LocalAccess:        150 * sim.Nanosecond,
		RemoteAccessPerHop: 90 * sim.Nanosecond,
		MigrationCost:      2 * sim.Microsecond,
	}
}

// Opteron6168BW returns the Opteron 6168 testbed with each socket's
// memory channel capped. The ceiling sits well below the part's peak
// DDR3 figure: it models the sustainable rate left to the JVM's
// allocation and copy traffic after the mutators' own loads, low enough
// that a heavily allocating workload saturates it within a socket.
func Opteron6168BW() Config {
	cfg := Opteron6168()
	cfg.SocketBandwidth = 512 << 20 // 512 MB per virtual second per socket
	return cfg
}

// Opteron6168Flat returns the Opteron 6168 testbed with remote memory
// accesses as cheap as local ones and free thread migration.
func Opteron6168Flat() Config {
	cfg := Opteron6168()
	cfg.RemoteAccessPerHop = 0
	cfg.MigrationCost = 0
	return cfg
}

// models is the global machine-model registry. Factories return the
// Model itself — models are stateless, so one value serves every lookup.
var models = registry.New[Model]("machine model")

func init() {
	MustRegisterModel(NewModel(DefaultModel, Opteron6168()))
	MustRegisterModel(NewModel(ModelSparcT3, SparcT3_4()))
	MustRegisterModel(NewModel(ModelOpteronBW, Opteron6168BW()))
	MustRegisterModel(NewModel(ModelOpteronFlat, Opteron6168Flat()))
}

// RegisterModel adds a model to the registry under its Name. Duplicate or
// empty names and invalid configurations are rejected.
func RegisterModel(m Model) error {
	if m == nil {
		return fmt.Errorf("machine: nil model")
	}
	if err := m.Config().Validate(); err != nil {
		return fmt.Errorf("machine: model %q: %w", m.Name(), err)
	}
	return models.Register(m.Name(), func() Model { return m })
}

// MustRegisterModel is RegisterModel that panics on error — for package
// init blocks wiring in built-ins.
func MustRegisterModel(m Model) {
	if err := RegisterModel(m); err != nil {
		panic(err)
	}
}

// LookupModel returns the registered model with the given name.
func LookupModel(name string) (Model, error) { return models.New(name) }

// KnownModel reports whether name is a registered model.
func KnownModel(name string) bool { return models.Known(name) }

// ValidateModel checks a plan- or CLI-supplied model name. The empty
// string is valid and means "the default model".
func ValidateModel(name string) error {
	if name == "" || models.Known(name) {
		return nil
	}
	_, err := models.New(name)
	return err
}

// ModelNames returns every registered model name in registration order.
func ModelNames() []string { return models.Names() }
