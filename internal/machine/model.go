package machine

import (
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

// Models is the machine-model catalog. Models are stateless, so one
// value serves every lookup; registration rejects an invalid Config. The
// empty name selects the default model. Results are stored under
// fingerprints that hold a run's model name, not its topology, so
// changing a built-in model's configuration needs a store.Version bump.
var Models = registry.New[Model]("machine model", DefaultModel,
	func(m Model) error { return m.Config().Validate() })

func init() {
	for _, m := range []Model{
		NewModel(DefaultModel, Opteron6168()),
		NewModel(ModelSparcT3, SparcT3_4()),
		NewModel(ModelOpteronBW, Opteron6168BW()),
		NewModel(ModelOpteronFlat, Opteron6168Flat()),
	} {
		Models.MustRegister(m.Name(), m)
	}
}
