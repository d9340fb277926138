package machine

import (
	"javasim/internal/registry"
	"javasim/internal/sim"
)

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

// Models is the machine-model catalog: a model is a name and a Config.
// Registration rejects an invalid Config, and the empty name selects the
// default model. Results are stored under fingerprints that hold a run's
// model name, not its topology, so changing a built-in model's
// configuration needs a store.Version bump.
var Models = registry.New[Config]("machine model", DefaultModel, Config.Validate)

func init() {
	Models.MustRegister(DefaultModel, Opteron6168())
	Models.MustRegister(ModelSparcT3, SparcT3_4())
	Models.MustRegister(ModelOpteronBW, Opteron6168BW())
	Models.MustRegister(ModelOpteronFlat, Opteron6168Flat())
}
