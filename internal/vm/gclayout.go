package vm

import (
	"javasim/internal/gc"
	"javasim/internal/machine"
)

// NUMA-aware heap layout support for GC policies that home compartment
// regions on specific sockets (gc.Layout.HomeSockets non-nil). Two
// effects are modeled, both computed once from the machine's static
// latencies so runs stay deterministic:
//
//   - evacuation locality: the collector's copy cost per KiB is calibrated
//     for a heap interleaved across the spanned memory nodes, so a
//     compartment whose region and collecting workers sit on one node
//     evacuates at the local latency instead of the interleaved mean —
//     a copy factor <= 1;
//   - mutator grouping: threads are mapped to the compartment homed on
//     the socket their initial core belongs to, so a thread group's
//     allocation, death, and collection all stay node-local.

// numaCopyFactors returns the per-compartment evacuation cost
// multipliers: local access latency over the mean latency an interleaved
// heap pays across the spanned sockets. On a single-socket run the two
// coincide and the factor is exactly 1.
func numaCopyFactors(mach *machine.Machine, spanned int, layout gc.Layout) []float64 {
	enabled := mach.EnabledCores()
	var mean float64
	for _, core := range enabled {
		for s := 0; s < spanned; s++ {
			mean += float64(mach.MemoryLatency(core, s))
		}
	}
	mean /= float64(len(enabled) * spanned)
	local := float64(mach.Config().LocalAccess)
	factors := make([]float64, layout.Compartments)
	for c := range factors {
		factors[c] = 1
		if mean > 0 && local < mean {
			factors[c] = local / mean
		}
	}
	return factors
}

// numaCompartmentMap assigns each mutator the compartment homed on the
// socket of its initial core (cores are enabled socket-major and threads
// dispatch in index order, so thread i starts on core i%cores). Sockets
// hosting several compartments rotate threads across them; a socket with
// no homed compartment falls back to round-robin.
func numaCompartmentMap(mach *machine.Machine, threads, cores int, layout gc.Layout) []int {
	bySocket := make(map[int][]int)
	for c, s := range layout.HomeSockets {
		bySocket[s] = append(bySocket[s], c)
	}
	next := make(map[int]int)
	out := make([]int, threads)
	for i := 0; i < threads; i++ {
		s := mach.SocketOf(i % cores)
		comps := bySocket[s]
		if len(comps) == 0 {
			out[i] = i % layout.Compartments
			continue
		}
		out[i] = comps[next[s]%len(comps)]
		next[s]++
	}
	return out
}
