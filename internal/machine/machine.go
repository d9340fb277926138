// Package machine models the hardware testbed: a cache-coherent NUMA
// multiprocessor composed of sockets, each holding a set of cores and a
// local memory node. Cores may expose several hardware threads (strands)
// sharing one issue pipeline, as on CMT parts such as the SPARC T3, and
// sockets may carry a finite memory-bandwidth budget.
//
// The paper's experiments ran on a four-socket AMD Opteron 6168 system (12
// cores per socket, 48 cores total, 64 GB RAM). Opteron6168 reproduces that
// topology. The model captures the properties the experiments depend on —
// core counts, socket locality, and the relative cost of local versus
// remote memory access — not microarchitectural detail. Alternative
// machines are published through a string-keyed model registry (see
// model.go) so plans can sweep the same workload across hardware
// generations.
package machine

import (
	"fmt"

	"javasim/internal/sim"
)

// Config describes a NUMA machine.
type Config struct {
	// Sockets is the number of processor packages; each is one NUMA node.
	Sockets int
	// CoresPerSocket is the number of physical cores in each package.
	CoresPerSocket int
	// ThreadsPerCore is the number of hardware threads (strands) each
	// physical core exposes. Zero means 1: one schedulable unit per core,
	// the pre-CMT default.
	ThreadsPerCore int `json:",omitempty"`
	// IssueWidth is how many of a core's hardware threads can issue at
	// full speed concurrently. When more strands of one core are busy than
	// the pipeline can issue, each runs at IssueWidth/busy of nominal
	// throughput. Zero means 1. Irrelevant when ThreadsPerCore <= 1.
	IssueWidth int `json:",omitempty"`
	// MemoryPerNode is the RAM attached to each socket, in bytes.
	MemoryPerNode int64
	// SocketBandwidth is each socket's memory-bandwidth budget in bytes
	// per virtual second. Traffic past the ceiling queues and stretches
	// memory stalls. Zero means unlimited (bandwidth is not modeled).
	SocketBandwidth int64 `json:",omitempty"`
	// LocalAccess is the cost of a memory access that hits the socket's own
	// node.
	LocalAccess sim.Time
	// RemoteAccessPerHop is the additional cost of an access to another
	// socket's node. Every modeled mesh keeps each socket one hop from
	// every other, so a remote access pays it once.
	RemoteAccessPerHop sim.Time
	// MigrationCost is the scheduling penalty when a thread moves between
	// cores: cache and TLB refill expressed as a lump sum. Cross-socket
	// migrations additionally pay RemoteAccessPerHop-scaled costs through
	// the latency model.
	MigrationCost sim.Time
}

// Opteron6168 returns the configuration of the paper's testbed: four AMD
// Opteron 6168 sockets, 12 cores each, 64 GB total RAM. Latency magnitudes
// follow the published ~1.4–2.2x local-to-remote NUMA factor for that
// platform generation.
func Opteron6168() Config {
	return Config{
		Sockets:            4,
		CoresPerSocket:     12,
		MemoryPerNode:      16 << 30, // 64 GB / 4 nodes
		LocalAccess:        65 * sim.Nanosecond,
		RemoteAccessPerHop: 45 * sim.Nanosecond,
		MigrationCost:      3 * sim.Microsecond,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Sockets <= 0 {
		return fmt.Errorf("machine: Sockets = %d, need > 0", c.Sockets)
	}
	if c.CoresPerSocket <= 0 {
		return fmt.Errorf("machine: CoresPerSocket = %d, need > 0", c.CoresPerSocket)
	}
	if c.ThreadsPerCore < 0 {
		return fmt.Errorf("machine: ThreadsPerCore = %d, need >= 0 (0 means 1)", c.ThreadsPerCore)
	}
	if c.IssueWidth < 0 {
		return fmt.Errorf("machine: IssueWidth = %d, need >= 0 (0 means 1)", c.IssueWidth)
	}
	if c.MemoryPerNode <= 0 {
		return fmt.Errorf("machine: MemoryPerNode = %d, need > 0", c.MemoryPerNode)
	}
	if c.SocketBandwidth < 0 {
		return fmt.Errorf("machine: SocketBandwidth = %d, need >= 0 (0 means unlimited)", c.SocketBandwidth)
	}
	if c.LocalAccess < 0 || c.RemoteAccessPerHop < 0 || c.MigrationCost < 0 {
		return fmt.Errorf("machine: negative latency in config")
	}
	return nil
}

// threadsPerCore returns the effective strand count (>= 1).
func (c Config) threadsPerCore() int {
	if c.ThreadsPerCore < 1 {
		return 1
	}
	return c.ThreadsPerCore
}

// issueWidth returns the effective issue width (>= 1).
func (c Config) issueWidth() int {
	if c.IssueWidth < 1 {
		return 1
	}
	return c.IssueWidth
}

// UnitsPerSocket returns the number of schedulable units (hardware
// threads) per socket: CoresPerSocket * ThreadsPerCore.
func (c Config) UnitsPerSocket() int { return c.CoresPerSocket * c.threadsPerCore() }

// TotalCores returns the total number of schedulable units: Sockets *
// CoresPerSocket * ThreadsPerCore. The name survives from when every core
// was single-threaded; on CMT machines the units are hardware threads.
func (c Config) TotalCores() int { return c.Sockets * c.UnitsPerSocket() }

// Core is one schedulable unit — a hardware thread of a physical core.
// On machines with ThreadsPerCore <= 1 a unit is a whole core.
// Utilization accounting is filled in by the scheduler as threads run.
type Core struct {
	// ID is the global unit index in socket-major order. Within a socket,
	// strands spread round-robin across the physical cores so that
	// enabling the first n units fills distinct pipelines before doubling
	// up.
	ID int
	// Socket is the package (and NUMA node) holding this unit.
	Socket int
	// Pipeline is the global physical-core index this unit issues
	// through. Units sharing a Pipeline contend for its issue slots.
	Pipeline int
	// Strand is this unit's hardware-thread index within its pipeline.
	Strand int
	// Enabled reports whether the experiment has switched this unit on.
	// The paper enables subsets of cores to sweep machine sizes.
	Enabled bool
	// BusyTime accumulates virtual time during which a thread occupied the
	// unit.
	BusyTime sim.Time
}

// Machine is an instantiated NUMA system.
type Machine struct {
	cfg   Config
	cores []Core

	// Memory-bandwidth queueing state, one virtual clock per socket.
	// bwFree[s] is the virtual time at which socket s's memory channel
	// next has spare capacity; traffic arriving earlier queues behind it.
	bwFree  []sim.Time
	bwStall sim.Time
	bwBytes int64
}

// New builds a machine from cfg with every unit enabled. It returns an
// error if the configuration is invalid, so bad plan- or CLI-supplied
// configs surface as load errors rather than panics.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, cores: make([]Core, cfg.TotalCores())}
	ups := cfg.UnitsPerSocket()
	cps := cfg.CoresPerSocket
	for i := range m.cores {
		socket := i / ups
		u := i % ups
		coreInSocket := u % cps
		m.cores[i] = Core{
			ID:       i,
			Socket:   socket,
			Pipeline: socket*cps + coreInSocket,
			Strand:   u / cps,
			Enabled:  true,
		}
	}
	if cfg.SocketBandwidth > 0 {
		m.bwFree = make([]sim.Time, cfg.Sockets)
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCores returns the total number of schedulable units, enabled or not.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns the unit with the given global index.
func (m *Machine) Core(i int) *Core { return &m.cores[i] }

// ThreadsPerCore returns the effective strand count per pipeline (>= 1).
func (m *Machine) ThreadsPerCore() int { return m.cfg.threadsPerCore() }

// IssueWidth returns the effective issue width per pipeline (>= 1).
func (m *Machine) IssueWidth() int { return m.cfg.issueWidth() }

// EnableCores switches on the first n units in index order and disables
// the rest, mirroring how the paper's experiments enabled core subsets
// (fill one socket before spilling to the next). On CMT machines the
// index order spreads strands round-robin across a socket's pipelines,
// so small n occupies distinct pipelines before siblings double up. It
// returns an error if n is out of range.
func (m *Machine) EnableCores(n int) error {
	if n < 1 || n > len(m.cores) {
		return fmt.Errorf("machine: EnableCores(%d) out of range [1,%d]", n, len(m.cores))
	}
	for i := range m.cores {
		m.cores[i].Enabled = i < n
	}
	return nil
}

// EnabledCores returns the indices of all enabled units in order.
func (m *Machine) EnabledCores() []int {
	out := make([]int, 0, len(m.cores))
	for i := range m.cores {
		if m.cores[i].Enabled {
			out = append(out, i)
		}
	}
	return out
}

// SocketOf returns the socket index of a unit.
func (m *Machine) SocketOf(core int) int { return m.cores[core].Socket }

// PipelineOf returns the global physical-core index a unit issues
// through.
func (m *Machine) PipelineOf(core int) int { return m.cores[core].Pipeline }

// MemoryLatency returns the cost of one memory access issued by core
// against the memory node of socket node. Every modeled machine is a
// flat mesh like the Opteron 6100's HyperTransport links, which keep
// every socket within one hop of every other, so a remote access pays
// RemoteAccessPerHop once.
func (m *Machine) MemoryLatency(core, node int) sim.Time {
	if m.cores[core].Socket == node {
		return m.cfg.LocalAccess
	}
	return m.cfg.LocalAccess + m.cfg.RemoteAccessPerHop
}

// RemotePenalty returns the multiplicative slowdown a thread suffers when
// running on core but touching memory homed on node, relative to an
// all-local run. It is >= 1.
func (m *Machine) RemotePenalty(core, node int) float64 {
	local := float64(m.cfg.LocalAccess)
	if local == 0 {
		return 1
	}
	return float64(m.MemoryLatency(core, node)) / local
}

// HasBandwidthLimit reports whether the machine models a finite per-socket
// memory-bandwidth budget.
func (m *Machine) HasBandwidthLimit() bool { return m.bwFree != nil }

// BillTraffic charges bytes of memory traffic against socket's bandwidth
// budget at virtual time now and returns the stall the issuing thread
// must absorb before the traffic completes. Each socket's channel is a
// single-server queue with deterministic service time bytes/bandwidth:
// traffic arriving while the channel is free pays nothing extra, traffic
// arriving while earlier transfers still occupy the channel waits out the
// backlog. On machines without a bandwidth limit it returns 0.
func (m *Machine) BillTraffic(socket int, bytes int64, now sim.Time) sim.Time {
	if m.bwFree == nil || bytes <= 0 {
		return 0
	}
	m.bwBytes += bytes
	stall := m.bwFree[socket] - now
	if stall < 0 {
		stall = 0
	}
	start := now + stall
	service := sim.Time(bytes * int64(sim.Second) / m.cfg.SocketBandwidth)
	m.bwFree[socket] = start + service
	m.bwStall += stall
	return stall
}

// BandwidthStall returns the total stall time billed by BillTraffic.
func (m *Machine) BandwidthStall() sim.Time { return m.bwStall }

// TrafficBytes returns the total memory traffic billed by BillTraffic.
func (m *Machine) TrafficBytes() int64 { return m.bwBytes }
